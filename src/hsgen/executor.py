"""Deterministic tiled execution of the large GEMM/HERK/HER2K updates.

Emulates output-partitioned multi-device BLAS on a thread pool: the output
is cut into tiles, every tile consumes the full inner dimension, and each
tile is computed by exactly one worker with the same ascending-k
accumulation the serial kernels use.  No cross-tile reduction exists, so
results are bit-identical for every worker count and every tile size.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import KernelKind, _acc_product, _apply_op, _as_real, _scaled, _update_lower
from .matcore import DimensionError, InputError

_ITEMSIZE = 16  # complex128


@dataclass(frozen=True)
class ExecPolicy:
    """Worker count and output-tile edge for the partitioned kernels."""

    workers: int = 1
    tile: int = 512
    mode: str = "tiled"

    def __post_init__(self):
        if int(self.workers) != self.workers or self.workers < 1:
            raise InputError(f"workers must be a positive integer, got {self.workers!r}")
        if int(self.tile) != self.tile or self.tile < 32:
            raise InputError(f"tile must be an integer >= 32, got {self.tile!r}")
        if self.mode not in ("serial", "tiled"):
            raise InputError(f"mode must be 'serial' or 'tiled', got {self.mode!r}")


@dataclass(frozen=True)
class Tile:
    row0: int
    row1: int
    col0: int
    col1: int
    diagonal: bool = False


@dataclass
class TileMap:
    rows: int
    cols: int
    tile: int
    triangular: bool
    tiles: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)


def plan_tiles(rows: int, cols: int, tile: int, triangular: bool = False) -> TileMap:
    """Canonical row-major tile grid over the stored output region.

    For triangular outputs (square only) tiles strictly above the diagonal
    block row are omitted and diagonal tiles are flagged.
    """
    if rows < 1 or cols < 1 or tile < 1:
        raise InputError(f"rows, cols, tile must be positive, got {(rows, cols, tile)}")
    if triangular and rows != cols:
        raise InputError(f"triangular maps need a square output, got {(rows, cols)}")
    tm = TileMap(rows, cols, tile, triangular)
    for br in range((rows + tile - 1) // tile):
        r0, r1 = br * tile, min((br + 1) * tile, rows)
        for bc in range((cols + tile - 1) // tile):
            if triangular and bc > br:
                continue
            c0, c1 = bc * tile, min((bc + 1) * tile, cols)
            tm.tiles.append(Tile(r0, r1, c0, c1, triangular and bc == br))
    return tm


@dataclass(frozen=True)
class ExecResult:
    seconds: float
    n_tiles: int
    bytes_touched: int


def _write_rect(cview, prod, beta):
    """Full-rectangle tail of the gemm update on an output view."""
    if prod is None:
        if beta == 0:
            cview[:] = 0
        elif beta != 1:
            cview[:] = kernels._cprod(beta, cview)
        return
    if beta == 0:
        cview[:] = prod
    elif beta == 1:
        cview[:] = prod + cview
    else:
        cview[:] = prod + kernels._cprod(beta, cview)


def _run_tiles(tiles, worker, workers: int) -> None:
    if workers == 1:
        for t in tiles:
            worker(t)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # list() propagates worker exceptions
        list(pool.map(worker, tiles))


def _gemm_tiled(alpha, opa, a, opb, b, beta, c, policy: ExecPolicy) -> tuple[int, int]:
    """Tiled gemm update of c in place; returns (bytes touched, tile count)."""
    a_ = _apply_op(opa, a, "a")
    b_ = _apply_op(opb, b, "b")
    if a_.shape[1] != b_.shape[0]:
        raise DimensionError(
            f"inner dimensions disagree: op(a) {a_.shape} vs op(b) {b_.shape}"
        )
    m, n = a_.shape[0], b_.shape[1]
    k = a_.shape[1]
    if c.shape != (m, n):
        raise DimensionError(f"c has shape {c.shape}, expected {(m, n)}")
    tm = plan_tiles(m, n, policy.tile)

    def work(t: Tile):
        prod = None
        if alpha != 0:
            acc = _acc_product(a_[t.row0 : t.row1, :], b_[:, t.col0 : t.col1])
            prod = _scaled(alpha, acc)
        _write_rect(c[t.row0 : t.row1, t.col0 : t.col1], prod, beta)

    _run_tiles(tm.tiles, work, policy.workers)
    return sum(
        ((t.row1 - t.row0) * (t.col1 - t.col0) + (t.row1 - t.row0 + t.col1 - t.col0) * k)
        * _ITEMSIZE
        for t in tm.tiles
    ), len(tm.tiles)


def _rank_update_tiled(kind, alpha, z, b, beta, c, policy: ExecPolicy):
    """Shared HERK/HER2K tiling (HERK is the z is b, single-product case)."""
    n = z.shape[1]
    if c.shape != (n, n):
        raise DimensionError(f"c has shape {c.shape}, expected {(n, n)}")
    k = z.shape[0]
    zh = np.conj(z).T
    bh = zh if kind is KernelKind.HERK else np.conj(b).T
    calpha = np.conj(complex(alpha))
    tm = plan_tiles(n, n, policy.tile, triangular=True)

    def work(t: Tile):
        prod = None
        if alpha != 0:
            left = _scaled(alpha, _acc_product(zh[t.row0 : t.row1, :], b[:, t.col0 : t.col1]))
            if kind is KernelKind.HERK:
                prod = left
            else:
                right = _scaled(
                    calpha, _acc_product(bh[t.row0 : t.row1, :], z[:, t.col0 : t.col1])
                )
                prod = left + right
        cview = c[t.row0 : t.row1, t.col0 : t.col1]
        if t.diagonal:
            _update_lower(cview, prod, beta)
        else:
            _write_rect(cview, prod, beta)

    _run_tiles(tm.tiles, work, policy.workers)
    panels = 2 if kind is KernelKind.HER2K else 1
    return sum(
        ((t.row1 - t.row0) * (t.col1 - t.col0) + panels * (t.row1 - t.row0 + t.col1 - t.col0) * k)
        * _ITEMSIZE
        for t in tm.tiles
    ), len(tm.tiles)


def run_partitioned(kind: KernelKind, operands: tuple, policy: ExecPolicy) -> ExecResult:
    """Run one large kernel under the policy; updates the output in place.

    Operand tuples mirror the serial kernels: GEMM
    ``(alpha, opa, a, opb, b, beta, c)``, HERK ``(alpha, a, beta, c)``,
    HER2K ``(alpha, z, b, beta, c)``.
    """
    if kind not in (KernelKind.GEMM, KernelKind.HERK, KernelKind.HER2K):
        raise InputError(f"run_partitioned does not dispatch {kind!r}")
    t0 = time.perf_counter()
    if policy.mode == "serial":
        if kind is KernelKind.GEMM:
            kernels.gemm(*operands)
            alpha, opa, a, opb, b, beta, c = operands
            k = _apply_op(opa, a, "a").shape[1]
            bytes_touched = (c.size + (c.shape[0] + c.shape[1]) * k) * _ITEMSIZE
        elif kind is KernelKind.HERK:
            kernels.herk(*operands)
            _, a, _, c = operands
            bytes_touched = (c.size + 2 * a.size) * _ITEMSIZE
        else:
            kernels.her2k(*operands)
            _, z, b, _, c = operands
            bytes_touched = (c.size + 2 * (z.size + b.size)) * _ITEMSIZE
        return ExecResult(time.perf_counter() - t0, 1, bytes_touched)

    if kind is KernelKind.GEMM:
        bytes_touched, n_tiles = _gemm_tiled(*operands, policy)
    elif kind is KernelKind.HERK:
        alpha, a, beta, c = operands
        bytes_touched, n_tiles = _rank_update_tiled(
            kind, _as_real(alpha, "herk alpha"), a, a, _as_real(beta, "herk beta"), c, policy
        )
    else:
        alpha, z, b, beta, c = operands
        if z.shape != b.shape:
            raise DimensionError(f"z shape {z.shape} != b shape {b.shape}")
        bytes_touched, n_tiles = _rank_update_tiled(
            kind, alpha, z, b, _as_real(beta, "her2k beta"), c, policy
        )
    return ExecResult(time.perf_counter() - t0, n_tiles, bytes_touched)
