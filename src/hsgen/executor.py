"""Deterministic tiled execution of the large GEMM/HERK/HER2K updates.

Emulates output-partitioned multi-device BLAS on threads: the output is
cut into tiles, every tile consumes the full inner dimension, and each
tile is computed whole by exactly one worker.  The workers are the
calling thread plus ``workers - 1`` helpers from a pool kept for the
life of the process (``kernels._share``), all taking tiles from one
queue, so a build starts threads only the first time.  ``run_partitioned`` is
``kernels._run``, the one driver the public kernels run serially, on the
policy's grid and engine, plus a count of the bytes the tiles touch; it
takes the updates the public kernels take, checked by the same
``kernels._terms``.  A tile is at most one block of the output's fixed
``kernels._BLOCK`` grid: ``ExecPolicy`` stores an edge above it as the
block edge, and tiles above the diagonal of a triangular output are
never planned.  No cross-tile reduction exists, so results are
bit-identical for every worker count and every tile size.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .kernels import KernelKind, Tile, plan_tiles
from .matcore import InputError, int_fields

__all__ = ["ExecPolicy", "ExecResult", "Tile", "plan_tiles", "run_partitioned"]

_ITEMSIZE = 16  # complex128


@dataclass(frozen=True)
class ExecPolicy:
    """Worker count, output-tile edge and per-tile product engine
    (``kernels.ENGINES``) for the partitioned kernels.  An edge above
    ``kernels._BLOCK`` is stored as ``kernels._BLOCK``, the edge that
    runs."""

    workers: int = 1
    tile: int = kernels._BLOCK
    engine: str = kernels.ENGINES[0]

    def __post_init__(self):
        int_fields(self, workers=1, tile=32)
        object.__setattr__(self, "tile", min(self.tile, kernels._BLOCK))
        if self.engine not in kernels.ENGINES:
            raise InputError(f"engine must be one of {kernels.ENGINES}, got {self.engine!r}")


@dataclass(frozen=True)
class ExecResult:
    n_tiles: int
    bytes_touched: int


def run_partitioned(kind: KernelKind, operands: tuple, policy: ExecPolicy) -> ExecResult:
    """Run one large kernel under the policy; updates the output in place.

    Operand tuples mirror the public kernels: GEMM
    ``(alpha, opa, a, opb, b, beta, c)``, HERK ``(alpha, a, beta, c)``,
    HER2K ``(alpha, z, b, beta, c)``.  ``bytes_touched`` counts, per
    tile, the output tile plus one row and one column panel of the inner
    dimension per product term.  An update outside ``kernels``' contract
    is an ``InputError`` that leaves the output as it was.
    """
    tiles, panels = kernels._run(kind, operands, policy.tile, policy.workers, policy.engine)
    bytes_touched = sum(
        ((t.row1 - t.row0) * (t.col1 - t.col0)
         + panels * (t.row1 - t.row0 + t.col1 - t.col0)) * _ITEMSIZE
        for t in tiles
    )
    return ExecResult(len(tiles), bytes_touched)
