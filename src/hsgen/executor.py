"""Deterministic tiled execution of the large GEMM/HERK/HER2K updates.

Emulates output-partitioned multi-device BLAS on a thread pool: the output
is cut into tiles, every tile consumes the full inner dimension, and each
tile is computed whole by exactly one worker with the per-tile engine of
``kernels``, the one the public kernels run serially.  A tile is at most
one block of the output's fixed ``kernels._BLOCK`` grid: a policy tile
above it plans the block grid, and tiles above the diagonal of a
triangular output are never planned.  No cross-tile reduction exists, so
results are bit-identical for every worker count and every tile size.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import kernels
from .kernels import KernelKind, Tile, _terms, _tile_worker, plan_tiles
from .matcore import InputError

__all__ = ["ExecPolicy", "ExecResult", "Tile", "plan_tiles", "run_partitioned"]

_ITEMSIZE = 16  # complex128


@dataclass(frozen=True)
class ExecPolicy:
    """Worker count and output-tile edge for the partitioned kernels."""

    workers: int = 1
    tile: int = 512

    def __post_init__(self):
        for name, least in (("workers", 1), ("tile", 32)):
            v = getattr(self, name)
            try:
                n = int(v)
            except (OverflowError, ValueError):  # inf, nan
                n = 0
            if n != v or n < least:
                raise InputError(f"{name} must be an integer >= {least}, got {v!r}")
            object.__setattr__(self, name, n)


@dataclass(frozen=True)
class ExecResult:
    seconds: float
    n_tiles: int
    bytes_touched: int


def run_partitioned(kind: KernelKind, operands: tuple, policy: ExecPolicy) -> ExecResult:
    """Run one large kernel under the policy; updates the output in place.

    Operand tuples mirror the public kernels: GEMM
    ``(alpha, opa, a, opb, b, beta, c)``, HERK ``(alpha, a, beta, c)``,
    HER2K ``(alpha, z, b, beta, c)``.  The tile edge is
    ``min(policy.tile, kernels._BLOCK)``.  ``bytes_touched`` counts, per
    tile, the output tile plus one row and one column panel of the inner
    dimension per product term with a nonzero scalar.
    """
    t0 = time.perf_counter()
    terms, beta, c = _terms(kind, operands)
    tiles = plan_tiles(*c.shape, min(policy.tile, kernels._BLOCK),
                       triangular=kind is not KernelKind.GEMM)
    work = _tile_worker(terms, beta, c)
    if policy.workers == 1:
        for t in tiles:
            work(t)
    else:
        with ThreadPoolExecutor(max_workers=policy.workers) as pool:
            # list() propagates worker exceptions
            list(pool.map(work, tiles))
    panels = sum(1 for term in terms if term[0] != 0) * terms[0][1].shape[1]
    bytes_touched = sum(
        ((t.row1 - t.row0) * (t.col1 - t.col0)
         + panels * (t.row1 - t.row0 + t.col1 - t.col0)) * _ITEMSIZE
        for t in tiles
    )
    return ExecResult(time.perf_counter() - t0, len(tiles), bytes_touched)
