"""Deterministic tiled execution of the large GEMM/HERK/HER2K updates.

Emulates output-partitioned multi-device BLAS on a thread pool: the output
is cut into tiles, every tile consumes the full inner dimension, and each
tile is computed whole by exactly one worker.  ``run_partitioned`` is
``kernels._run``, the one driver the public kernels run serially, on the
policy's grid, plus a count of the bytes the tiles touch.  A tile is at
most one block of the output's fixed ``kernels._BLOCK`` grid: a policy
tile above it plans the block grid, and tiles above the diagonal of a
triangular output are never planned.  No cross-tile reduction exists, so
results are bit-identical for every worker count and every tile size.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .kernels import KernelKind, Tile, plan_tiles
from .matcore import int_fields

__all__ = ["ExecPolicy", "ExecResult", "Tile", "plan_tiles", "run_partitioned"]

_ITEMSIZE = 16  # complex128


@dataclass(frozen=True)
class ExecPolicy:
    """Worker count and output-tile edge for the partitioned kernels."""

    workers: int = 1
    tile: int = kernels._BLOCK

    def __post_init__(self):
        int_fields(self, workers=1, tile=32)


@dataclass(frozen=True)
class ExecResult:
    n_tiles: int
    bytes_touched: int


def run_partitioned(kind: KernelKind, operands: tuple, policy: ExecPolicy) -> ExecResult:
    """Run one large kernel under the policy; updates the output in place.

    Operand tuples mirror the public kernels: GEMM
    ``(alpha, opa, a, opb, b, beta, c)``, HERK ``(alpha, a, beta, c)``,
    HER2K ``(alpha, z, b, beta, c)``.  The tile edge is
    ``min(policy.tile, kernels._BLOCK)``.  ``bytes_touched`` counts, per
    tile, the output tile plus one row and one column panel of the inner
    dimension per product term computed (none when alpha is 0).
    """
    tiles, panels = kernels._run(kind, operands, min(policy.tile, kernels._BLOCK),
                                 policy.workers)
    bytes_touched = sum(
        ((t.row1 - t.row0) * (t.col1 - t.col0)
         + panels * (t.row1 - t.row0 + t.col1 - t.col0)) * _ITEMSIZE
        for t in tiles
    )
    return ExecResult(len(tiles), bytes_touched)
