"""Optimized assembly of H and S from per-atom blocks.

The pipeline: per-atom cross-term preparation ("Loop 1"), one large
rank-2k update ("H1"), the two rank-k overlap updates around the norm
scaling ("S1", "U norm", "S2"), then the per-atom Cholesky split
("Loop 2") feeding the final large updates ("H2" for atoms whose AA block
failed to factor, "H3" for the rest).  Every kernel invocation lands in a
FlopLedger with its section tag; the five large updates run through
``kernels.run_partitioned`` under the caller's policy, and the closing
Hermitian mirror of H and S (``kernels.hermitian_mirror``, not in the
ledger) shares its column blocks among the policy's workers the same
way.  The per-atom loops run on the coordinating thread, one call per
chunk each on the policy's engine (``kernels.loop1``, ``potrf_route``
then ``loop2``): one C call under ``native``, atom by atom under
``numpy``.  Each returns its kernels' seconds, and the ledger gets one
record per kernel in atom order, as if each had been timed on its own.

The atoms are processed in the chunks of ``probgen.atom_chunks``, the
grid the instance files are checksummed on.  A chunk's A rows, B rows
and norm weights are views of the instance's stacked fields; its scratch
is Z's buffer, one scaled copy of B (for S2, then X's buffer) and, for
H2, a gather of the A rows of atoms that failed to factor.  Each chunk
adds its share of the five large updates to the lower triangles of H and
S and is dropped, so the scratch is at most three ``chunk·n_l × n_g``
buffers however many atoms there are.  The grid depends only on the
dimensions, never on the policy; a build that fits in one chunk calls
every kernel on the same operands in the same order as one update over
all atoms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import ExecPolicy, FlopLedger, KernelKind, run_partitioned
from .matcore import HermitianResult, zeros
from .probgen import ProblemInstance, atom_chunks, validate_instance


@dataclass(frozen=True)
class SplitCounts:
    hpd: int
    nonhpd: int


@dataclass
class BuildOutput:
    h: HermitianResult
    s: HermitianResult
    split: SplitCounts
    ledger: FlopLedger


def build_hs(p: ProblemInstance, policy: ExecPolicy | None = None) -> BuildOutput:
    """Full assembly of H and S with a complete, section-tagged ledger.

    Z_a = (T_ab)^H A_a + 1/2 T_bb B_a gives the AB, BA and BB terms of H as
    Z^H B + B^H Z; the conjugate-transpose op on the gemm realizes the BA
    coupling block without materializing it.  Atoms whose AA block factors
    go through the triangular-multiply path and the rank-k update H3; the
    rest go through the Hermitian-multiply path and the gemm H2.  A failed
    factorization is routing data, not an error, and is not charged to the
    ledger; ``kernels.potrf_route`` alone decides the split.  The
    instance's blocks are observably unchanged.
    """
    validate_instance(p)
    policy = policy or ExecPolicy()
    engine = policy.engine
    ledger = FlopLedger()
    n_a, n_l, n_g = p.dims.n_atoms, p.dims.n_l, p.dims.n_g
    h = zeros(n_g, n_g)
    s = zeros(n_g, n_g)
    nonhpd = 0

    def timed(section, kind, dims, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        ledger.add(kind, dims, time.perf_counter() - t0, section)
        return out

    def update(section, kind, dims, *operands):
        timed(section, kind, dims, run_partitioned, kind, operands, policy)

    for a0, a1 in atom_chunks(p.dims):
        k = (a1 - a0) * n_l
        beta = 0 if a0 == 0 else 1
        # the chunk's rows of the stacked fields, as views
        a_rows = p.a_blocks[a0:a1].reshape(k, n_g)
        b_rows = p.b_blocks[a0:a1].reshape(k, n_g)
        u = p.u_norms[a0:a1].reshape(k)
        z_buf = zeros(k, n_g)
        for gemm_s, hemm_s in kernels.loop1(p.t_ab[a0:a1], p.a_blocks[a0:a1], p.t_bb[a0:a1],
                                            p.b_blocks[a0:a1], z_buf, engine):
            ledger.add(KernelKind.GEMM, (n_l, n_g, n_l), gemm_s, "Loop 1")
            ledger.add(KernelKind.HEMM, (n_l, n_g), hemm_s, "Loop 1")

        update("H1", KernelKind.HER2K, (n_g, k), 1, z_buf, b_rows, beta, h)
        update("S1", KernelKind.HERK, (n_g, k), 1, a_rows, beta, s)
        b_buf = b_rows.copy()  # scaled for S2, then X's buffer
        timed("U norm", KernelKind.DIAG_SCALE, (k, n_g), kernels.diag_scale, u, b_buf)
        update("S2", KernelKind.HERK, (n_g, k), 1, b_buf, 1, s)

        # Z and B are spent: Y rows go to the top of Z's buffer and X rows
        # to the top of B's; H2 gathers the failed atoms' A rows.  An HPD
        # atom's POTRF record covers both of its factorizations.
        info, potrf_s = kernels.potrf_route(p.t_aa[a0:a1], engine)
        rows_s = kernels.loop2(info, p.t_aa[a0:a1], p.a_blocks[a0:a1], z_buf, b_buf, engine)
        for code, route_s, (refactor_s, product_s) in zip(info, potrf_s, rows_s):
            if code == 0:
                ledger.add(KernelKind.POTRF, (n_l,), route_s + refactor_s, "Loop 2")
                ledger.add(KernelKind.TRMM, (n_l, n_g), product_s, "Loop 2")
            else:
                ledger.add(KernelKind.HEMM, (n_l, n_g), product_s, "Loop 2")
        failed = a0 + np.flatnonzero(info)
        x_rows = len(failed) * n_l
        y_rows = k - x_rows

        if x_rows:  # the gathered A rows are freed when H2 returns
            update("H2", KernelKind.GEMM, (n_g, n_g, x_rows), 1, "C",
                   p.a_blocks[failed].reshape(x_rows, n_g), "N", b_buf[:x_rows], 1, h)
        if y_rows:
            update("H3", KernelKind.HERK, (n_g, y_rows), 1, z_buf[:y_rows], 1, h)
        nonhpd += len(failed)
        del b_buf, z_buf

    kernels.hermitian_mirror(h, s, workers=policy.workers, engine=engine)
    return BuildOutput(HermitianResult(h), HermitianResult(s),
                       SplitCounts(n_a - nonhpd, nonhpd), ledger)
