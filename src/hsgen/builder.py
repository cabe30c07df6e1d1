"""Optimized assembly of H and S from per-atom blocks.

The pipeline: per-atom cross-term preparation ("Loop 1"), one large
rank-2k update ("H1"), the two rank-k overlap updates around the norm
scaling ("S1", "U norm", "S2"), then the per-atom Cholesky split
("Loop 2") feeding the final large updates ("H2" for atoms whose AA block
failed to factor, "H3" for the rest).  Every kernel invocation lands in a
FlopLedger with its section tag; the five large updates are dispatched
through the executor under the caller's policy while the per-atom small
kernels run inline on the coordinating thread.

Scratch memory (the Z stack, the B snapshot, and the three split stacks)
is allocated once per build and sized from the dimensions up front, so the
allocation pattern stays compatible with pinned-buffer reuse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .executor import ExecPolicy, run_partitioned
from .kernels import FlopLedger, KernelKind
from .matcore import (
    DimensionError,
    Fill,
    HermitianResult,
    hermitian_mirror,
    stack,
    zeros,
)
from .probgen import ProblemInstance, validate_instance


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


def _timed(ledger, section, kind, dims, fn):
    t0 = time.perf_counter()
    out = fn()
    if ledger is not None:
        ledger.add(kind, dims, time.perf_counter() - t0, section)
    return out


def build_phase1(p: ProblemInstance, ledger: FlopLedger | None = None):
    """Per-atom Z_a = (T_ab)^H A_a + 1/2 T_bb B_a, stacked alongside B.

    The conjugate-transpose op on the gemm realizes the BA coupling block
    without materializing it.  Returns ``(z_stack, b_stack)``.
    """
    n_a, n_l, n_g = p.dims.n_atoms, p.dims.n_l, p.dims.n_g
    z_stack = zeros(n_a * n_l, n_g)
    b_stack = stack(p.b_blocks)
    for a in range(n_a):
        zv = z_stack[a * n_l : (a + 1) * n_l, :]
        _timed(ledger, "Loop 1", KernelKind.GEMM, (n_l, n_g, n_l),
               lambda: kernels.gemm(1, "C", p.t_ab[a], "N", p.a_blocks[a], 0, zv))
        _timed(ledger, "Loop 1", KernelKind.HEMM, (n_l, n_g),
               lambda: kernels.hemm_left(0.5, p.t_bb[a], p.b_blocks[a], 1, zv))
    return z_stack, b_stack


def h_cross(z_stack, b_stack, ledger: FlopLedger | None = None,
            policy: ExecPolicy | None = None) -> HermitianResult:
    """Cross-term partial of H: lower triangle of Z^H B + B^H Z."""
    if z_stack.shape != b_stack.shape:
        raise DimensionError(
            f"z stack {z_stack.shape} and b stack {b_stack.shape} must match"
        )
    policy = policy or ExecPolicy()
    k, n_g = z_stack.shape
    h = zeros(n_g, n_g)
    res = run_partitioned(KernelKind.HER2K, (1, z_stack, b_stack, 0, h), policy)
    if ledger is not None:
        ledger.add(KernelKind.HER2K, (n_g, k), res.seconds, "H1")
    return HermitianResult(h, Fill.LOWER)


def build_s(p: ProblemInstance, ledger: FlopLedger | None = None,
            policy: ExecPolicy | None = None) -> HermitianResult:
    """S from the stacked A blocks and the norm-scaled stacked B blocks.

    The scaling happens on a scratch copy, so the instance's B blocks are
    observably unchanged.
    """
    policy = policy or ExecPolicy()
    n_a, n_l, n_g = p.dims.n_atoms, p.dims.n_l, p.dims.n_g
    k = n_a * n_l
    s = zeros(n_g, n_g)

    a_stack = stack(p.a_blocks)
    res = run_partitioned(KernelKind.HERK, (1, a_stack, 0, s), policy)
    if ledger is not None:
        ledger.add(KernelKind.HERK, (n_g, k), res.seconds, "S1")

    b_scratch = stack(p.b_blocks)
    u_all = np.concatenate([np.asarray(u) for u in p.u_norms])
    _timed(ledger, "U norm", KernelKind.DIAG_SCALE, (k, n_g),
           lambda: kernels.diag_scale(u_all, b_scratch))

    res = run_partitioned(KernelKind.HERK, (1, b_scratch, 1, s), policy)
    if ledger is not None:
        ledger.add(KernelKind.HERK, (n_g, k), res.seconds, "S2")
    return HermitianResult(hermitian_mirror(s), Fill.FULL)


def build_phase2(p: ProblemInstance, h: HermitianResult,
                 ledger: FlopLedger | None = None,
                 policy: ExecPolicy | None = None,
                 force_nonhpd: bool = False) -> SplitCounts:
    """Per-atom Cholesky split and the AA contribution to H (in place).

    Atoms whose AA block factors go through the triangular-multiply path
    and one stacked rank-k update ("H3"); the rest go through the
    Hermitian-multiply path and one stacked gemm ("H2").  A failed
    factorization is routing data, not an error, and is not charged to the
    ledger.  ``force_nonhpd`` is a test hook that sends every atom down
    the failure path without attempting the factorization.
    """
    policy = policy or ExecPolicy()
    n_a, n_l, n_g = p.dims.n_atoms, p.dims.n_l, p.dims.n_g
    k = n_a * n_l

    y_buf = zeros(k, n_g)
    x_buf = zeros(k, n_g)
    a_buf = zeros(k, n_g)
    y_rows = x_rows = 0

    for a in range(n_a):
        factor = None
        if not force_nonhpd:
            t0 = time.perf_counter()
            factor, _ = kernels.potrf_lower(p.t_aa[a])
            if factor is not None and ledger is not None:
                ledger.add(KernelKind.POTRF, (n_l,), time.perf_counter() - t0, "Loop 2")
        if factor is not None:
            yv = y_buf[y_rows : y_rows + n_l, :]
            yv[:] = _timed(ledger, "Loop 2", KernelKind.TRMM, (n_l, n_g),
                           lambda: kernels.trmm_left_conjtrans(factor, p.a_blocks[a]))
            y_rows += n_l
        else:
            xv = x_buf[x_rows : x_rows + n_l, :]
            _timed(ledger, "Loop 2", KernelKind.HEMM, (n_l, n_g),
                   lambda: kernels.hemm_left(1, p.t_aa[a], p.a_blocks[a], 0, xv))
            av = a_buf[x_rows : x_rows + n_l, :]
            av[:] = p.a_blocks[a]
            x_rows += n_l

    if x_rows:
        res = run_partitioned(
            KernelKind.GEMM,
            (1, "C", a_buf[:x_rows], "N", x_buf[:x_rows], 1, h.matrix),
            policy,
        )
        if ledger is not None:
            ledger.add(KernelKind.GEMM, (n_g, n_g, x_rows), res.seconds, "H2")
    if y_rows:
        res = run_partitioned(
            KernelKind.HERK, (1, y_buf[:y_rows], 1, h.matrix), policy
        )
        if ledger is not None:
            ledger.add(KernelKind.HERK, (n_g, y_rows), res.seconds, "H3")

    return SplitCounts(y_rows // n_l, x_rows // n_l)


def build_hs(p: ProblemInstance, policy: ExecPolicy | None = None,
             force_nonhpd: bool = False) -> BuildOutput:
    """Full assembly of H and S with a complete, section-tagged ledger."""
    validate_instance(p)
    policy = policy or ExecPolicy()
    ledger = FlopLedger()
    z_stack, b_stack = build_phase1(p, ledger)
    h = h_cross(z_stack, b_stack, ledger, policy)
    s = build_s(p, ledger, policy)
    split = build_phase2(p, h, ledger, policy, force_nonhpd=force_nonhpd)
    h_full = HermitianResult(hermitian_mirror(h.matrix), Fill.FULL)
    return BuildOutput(h_full, s, split, ledger)
