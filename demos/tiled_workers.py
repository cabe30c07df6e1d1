#!/usr/bin/env python3
"""Deterministic multi-worker execution of the large updates.

The executor partitions each output into tiles; every tile consumes the
full inner dimension, so no cross-tile reduction exists and the result is
bit-identical for any worker count and any tile size.  That determinism is
asserted here, followed by an informational throughput comparison.

Workers emulate the output partitioning of a multi-device BLAS on plain
threads.  Each rank-1 step of the deterministic kernels is a few short
numpy calls issued under the interpreter lock, so more workers help well
short of linearly (about 1.4-1.5x with 2 workers on 2 cores at the
benchmark's wide-2w dims, as README reports); the property being
demonstrated is bitwise reproducibility of the partition.
"""

import time

import numpy as np

from hsgen import Dims, ExecPolicy, ProblemSpec, build_hs, generate
from hsgen.executor import plan_tiles, run_partitioned
from hsgen.kernels import KernelKind
from hsgen.matcore import zeros

rng = np.random.default_rng(0)

# a rank-2k update shaped like the real workload: tall stack, square output
k_rows, n = 256, 320
z = np.asfortranarray(rng.standard_normal((k_rows, n)) + 1j * rng.standard_normal((k_rows, n)))
b = np.asfortranarray(rng.standard_normal((k_rows, n)) + 1j * rng.standard_normal((k_rows, n)))

tm = plan_tiles(n, n, 128, triangular=True)
print(f"{n}x{n} triangular output, tile 128 -> {len(tm)} tiles "
      f"({sum(t.diagonal for t in tm)} diagonal)")

outputs = {}
for workers in (1, 2, 4):
    c = zeros(n, n)
    t0 = time.perf_counter()
    res = run_partitioned(KernelKind.HER2K, (1, z, b, 0, c),
                          ExecPolicy(workers=workers, tile=128))
    seconds = time.perf_counter() - t0
    outputs[workers] = c.tobytes()
    flops = 8 * k_rows * n * n
    print(f"  workers={workers}: {seconds:.3f} s, {flops / seconds / 1e9:6.2f} "
          f"GFlops/s, {res.bytes_touched / 1e6:.1f} MB touched")

assert outputs[1] == outputs[2] == outputs[4]
print("outputs are bit-identical across worker counts")
print()

# the same property holds end to end for a whole build
inst = generate(ProblemSpec(Dims(3, 8, 192), seed=3, nonhpd_fraction=0.5))
digests = []
for workers in (1, 4):
    t0 = time.perf_counter()
    out = build_hs(inst, ExecPolicy(workers=workers, tile=64))
    wall = time.perf_counter() - t0
    digests.append((out.h.matrix.tobytes(), out.s.matrix.tobytes()))
    print(f"full build, workers={workers}: {wall:.3f} s wall")
assert digests[0] == digests[1]
print("H and S are bit-identical for the full pipeline as well")
