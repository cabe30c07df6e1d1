#!/usr/bin/env python3
"""Assemble H and S for a small synthetic system and check the result
against the brute-force reference.

The optimized path stacks per-atom blocks into large rank-k/rank-2k
updates; the reference recomputes both matrices with plain nested loops
straight from the per-atom sums.  The two share no kernel code.
"""

import numpy as np

from hsgen import (
    Dims,
    ProblemSpec,
    build_hs,
    generate,
    h_reference,
    rel_frob_error,
    s_reference,
    summarize,
)
from hsgen.report import format_table

# a toy system: 4 atoms, 6 rows per coefficient block, 32 basis functions,
# with half of the AA coupling blocks engineered to fail the Cholesky
spec = ProblemSpec(Dims(4, 6, 32), seed=7, nonhpd_fraction=0.5)
inst = generate(spec)

out = build_hs(inst)
print(f"split: {out.split.hpd} atoms factored, {out.split.nonhpd} on the fallback path")
print(f"H is {out.h.matrix.shape[0]}x{out.h.matrix.shape[1]}, "
      f"Hermitian defect {np.abs(out.h.matrix - out.h.matrix.conj().T).max():.2e}")

# the slow reference gives an independent answer
err_h = rel_frob_error(out.h.matrix, h_reference(inst))
err_s = rel_frob_error(out.s.matrix, s_reference(inst))
print(f"rel Frobenius error vs reference: H {err_h:.2e}, S {err_s:.2e}")

# S is a sum of Gram matrices, so it cannot have meaningfully negative spectrum
eigs = np.linalg.eigvalsh(out.s.matrix)
print(f"S spectrum: min {eigs[0]:.3e}, max {eigs[-1]:.3e}")

# every kernel call was logged with its section tag and flop count
print()
print(format_table(summarize(out.ledger, peak_gflops=2600.0)))
print(f"total: {out.ledger.total_flops():,} flops in {len(out.ledger)} kernel calls")
