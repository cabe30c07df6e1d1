"""Deterministic tiled execution of the large GEMM/HERK/HER2K updates.

Emulates output-partitioned multi-device BLAS on a thread pool: the output
is cut into tiles, every tile consumes the full inner dimension, and each
tile is computed by exactly one worker with the per-tile engine of
``kernels``, the same one the public kernels run as a single tile.  The
engine works on the output's fixed ``kernels._BLOCK`` grid, so tiles only
group blocks across workers, and it skips blocks above the diagonal.  No
cross-tile reduction exists, so results are bit-identical for every worker
count and every tile size; a tile edge of at least the output order runs
the whole update as one tile.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .kernels import KernelKind, Tile, _blocks, _terms, _tile_worker, plan_tiles
from .matcore import InputError

__all__ = ["ExecPolicy", "ExecResult", "Tile", "plan_tiles", "run_partitioned"]

_ITEMSIZE = 16  # complex128


@dataclass(frozen=True)
class ExecPolicy:
    """Worker count and output-tile edge for the partitioned kernels."""

    workers: int = 1
    tile: int = 512

    def __post_init__(self):
        if int(self.workers) != self.workers or self.workers < 1:
            raise InputError(f"workers must be a positive integer, got {self.workers!r}")
        if int(self.tile) != self.tile or self.tile < 32:
            raise InputError(f"tile must be an integer >= 32, got {self.tile!r}")


@dataclass(frozen=True)
class ExecResult:
    seconds: float
    n_tiles: int
    bytes_touched: int


def run_partitioned(kind: KernelKind, operands: tuple, policy: ExecPolicy) -> ExecResult:
    """Run one large kernel under the policy; updates the output in place.

    Operand tuples mirror the public kernels: GEMM
    ``(alpha, opa, a, opb, b, beta, c)``, HERK ``(alpha, a, beta, c)``,
    HER2K ``(alpha, z, b, beta, c)``.  ``bytes_touched`` counts, per block
    computed, the output block plus one row and one column panel of the
    inner dimension per product term with a nonzero scalar.
    """
    t0 = time.perf_counter()
    terms, beta, c = _terms(kind, operands)
    tiles = plan_tiles(*c.shape, policy.tile, triangular=kind is not KernelKind.GEMM)
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
        ((b.row1 - b.row0) * (b.col1 - b.col0)
         + panels * (b.row1 - b.row0 + b.col1 - b.col0)) * _ITEMSIZE
        for t in tiles for b in _blocks(t)
    )
    return ExecResult(time.perf_counter() - t0, len(tiles), bytes_touched)
