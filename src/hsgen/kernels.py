"""The seven computational kernels, each with a flop formula attached.

Deterministic-accumulation contract: every kernel reduces over its inner
dimension in ascending order, one rank-1 update at a time, and complex
products are evaluated with the separated real-arithmetic formula
(xr*yr - xi*yi, xr*yi + xi*yr).  numpy's native complex multiply may
contract to FMA on SIMD paths, which perturbs the last ulp; decomposing by
hand keeps every element bit-identical to a scalar triple loop and makes
results independent of tile shape, worker count, and operand strides.

The accumulator keeps the real and imaginary parts on two separate float64
planes, updated in place with ``out=`` ufuncs over preallocated scratch.
This is bit-identical to accumulating complex rank-1 products: a complex
add adds the two parts independently, and each scratch plane holds exactly
the separated-formula term, computed with the same operands in the same
order, so every element sees the same sequence of IEEE operations, signed
zeros and infinities included.  NaN results land in the same places, but
their sign and payload are not part of the contract: IEEE 754 leaves them
unspecified, and numpy's SIMD body and scalar tail pick different operands
to propagate.

POTRF is right-looking on the same two-plane layout: after each column
it subtracts that column's rank-1 term from the whole trailing block.
Every element still receives its subtractions one at a time in ascending
column order, so the factor is bit-identical to the left-looking scalar
loop it replaces.

GEMM, HERK and HER2K share one driver, ``_run``: it checks the update
into a list of product terms, plans the output's tiles and computes each
tile as the exact product of every term plus one tail, serially or on a
thread pool.  A tile is at most one block of the fixed ``_BLOCK`` grid,
so its accumulator stays in cache; tiles above the diagonal of a
triangular output are never planned, and an empty output plans none.  A
conjugated left operand is a view with a flag, negated as each column is
copied.  Every element gets the same operations on any grid, so the grid
does not change the bits.  The public kernels, and TRMM as a GEMM, run
``_run`` serially on the ``_BLOCK`` grid; the executor runs it on the
policy's grid, never coarser than ``_BLOCK``.  Every kernel writes the
output it is given and returns it.

One product contract, the one the pipeline uses: alpha is real, beta is
0 or 1, and only the left operand may be conjugated (GEMM's ``opa`` N or
C, ``opb`` N); anything else is an ``InputError``.  As in BLAS, alpha 0
skips the product, beta 0 makes the output write-only, and a unit alpha
or beta passes values through bitwise.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .matcore import DimensionError, InputError, hermitian_mirror, zeros


class KernelKind(enum.Enum):
    GEMM = "gemm"
    HEMM = "hemm"
    HERK = "herk"
    HER2K = "her2k"
    TRMM = "trmm"
    POTRF = "potrf"
    DIAG_SCALE = "diag_scale"


#: Ledger section tags, in report order.
SECTIONS = ("Loop 1", "Loop 2", "U norm", "S1", "S2", "H1", "H2", "H3")

_DIMS_ARITY = {
    KernelKind.GEMM: 3,
    KernelKind.HEMM: 2,
    KernelKind.HERK: 2,
    KernelKind.HER2K: 2,
    KernelKind.TRMM: 2,
    KernelKind.POTRF: 1,
    KernelKind.DIAG_SCALE: 2,
}


def flops_of(kind: KernelKind, dims) -> int:
    """Flop count of one kernel invocation.

    Dimension tuples: GEMM ``(m, n, k)``; HEMM ``(n, m)`` for an n x n
    Hermitian operand applied to n x m; HERK ``(n, k)`` updating an n x n
    triangle from a k x n operand; HER2K ``(n, k)``; TRMM ``(n, m)``;
    POTRF ``(n,)``; DIAG_SCALE ``(n, m)``.  Rank-k and triangular kinds
    count half of the equivalent full product; POTRF rounds 4/3 n^3 to the
    nearest integer.
    """
    if not isinstance(kind, KernelKind):
        raise InputError(f"unknown kernel kind {kind!r}")
    dims = tuple(int(d) for d in dims)
    if len(dims) != _DIMS_ARITY[kind] or any(d < 0 for d in dims):
        raise InputError(f"bad dims {dims} for {kind.value}")
    if kind is KernelKind.GEMM:
        m, n, k = dims
        return 8 * m * n * k
    if kind is KernelKind.HEMM:
        n, m = dims
        return 8 * n * n * m
    if kind is KernelKind.HERK:
        n, k = dims
        return 4 * k * n * n
    if kind is KernelKind.HER2K:
        n, k = dims
        return 8 * k * n * n
    if kind is KernelKind.TRMM:
        n, m = dims
        return 4 * n * n * m
    if kind is KernelKind.POTRF:
        (n,) = dims
        return round(4 * n**3 / 3)
    n, m = dims
    return 2 * n * m


@dataclass(frozen=True)
class FlopRecord:
    """One kernel invocation: kind, dimensions, wall time, section; its
    flops follow from the kind and dimensions."""

    kind: KernelKind
    dims: tuple
    seconds: float
    section: str

    def __post_init__(self):
        if self.section not in SECTIONS:
            raise InputError(f"unknown section tag {self.section!r}")
        flops_of(self.kind, self.dims)  # validates the kind and dims
        if self.seconds < 0:
            raise InputError("seconds must be nonnegative")

    @property
    def flops(self) -> int:
        return flops_of(self.kind, self.dims)


class FlopLedger:
    """Ordered record of every kernel invocation during a build."""

    def __init__(self):
        self.records: list[FlopRecord] = []

    def add(self, kind: KernelKind, dims, seconds: float, section: str) -> FlopRecord:
        rec = FlopRecord(kind, tuple(int(d) for d in dims), float(seconds), section)
        self.records.append(rec)
        return rec

    def total_flops(self) -> int:
        return sum(r.flops for r in self.records)

    def section_totals(self) -> dict:
        """section -> (flops, seconds), insertion-ordered by first appearance."""
        out: dict[str, tuple[int, float]] = {}
        for r in self.records:
            f, s = out.get(r.section, (0, 0.0))
            out[r.section] = (f + r.flops, s + r.seconds)
        return out

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


# ---------------------------------------------------------------------------
# deterministic arithmetic core


def _cprod(u, v):
    """Elementwise complex product via the separated real formula."""
    u = np.asarray(u)
    v = np.asarray(v)
    out = np.empty(np.broadcast(u, v).shape, dtype=np.complex128)
    out.real = u.real * v.real - u.imag * v.imag
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def _acc_product(a, b, conj_a=False):
    """a @ b, a conjugated by its flag, with ascending-k rank-1 updates.

    Per step only the k-th column of a and row of b are copied, into small
    contiguous vectors; whole panels are never copied, so the working set
    stays at the two accumulator planes plus two scratch planes.
    """
    m, kk = a.shape
    _, n = b.shape
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    acc_r = np.zeros((m, n), order="F")
    acc_i = np.zeros((m, n), order="F")
    t1 = np.empty((m, n), order="F")
    t2 = np.empty((m, n), order="F")
    col = np.empty((2, m))
    row = np.empty((2, n))
    xr, xi = col[0, :, None], col[1, :, None]
    yr, yi = row[0], row[1]
    sign_a = np.negative if conj_a else np.positive  # both exact
    for k in range(kk):
        np.copyto(col[0], ar[:, k])
        sign_a(ai[:, k], out=col[1])
        np.copyto(yr, br[k])
        np.copyto(yi, bi[k])
        np.multiply(xr, yr, out=t1)
        np.multiply(xi, yi, out=t2)
        np.subtract(t1, t2, out=t1)
        np.add(acc_r, t1, out=acc_r)
        np.multiply(xr, yi, out=t1)
        np.multiply(xi, yr, out=t2)
        np.add(t1, t2, out=t1)
        np.add(acc_i, t1, out=acc_i)
    del t1, t2  # packing then peaks at the two planes plus the result
    acc = np.empty((m, n), dtype=np.complex128, order="F")
    acc.real = acc_r
    acc.imag = acc_i
    return acc


# ---------------------------------------------------------------------------
# the per-tile engine


@dataclass(frozen=True)
class Tile:
    """Output rows [row0, row1) x columns [col0, col1); a diagonal tile of a
    triangular output stores only its lower triangle."""

    row0: int
    row1: int
    col0: int
    col1: int
    diagonal: bool = False


def plan_tiles(rows: int, cols: int, tile: int, triangular: bool = False) -> list[Tile]:
    """Canonical row-major tile grid over the stored output region.

    For triangular outputs (square only) tiles strictly above the diagonal
    block row are omitted and diagonal tiles are flagged.
    """
    if rows < 1 or cols < 1 or tile < 1:
        raise InputError(f"rows, cols, tile must be positive, got {(rows, cols, tile)}")
    if triangular and rows != cols:
        raise InputError(f"triangular maps need a square output, got {(rows, cols)}")
    tiles = []
    for br in range((rows + tile - 1) // tile):
        r0, r1 = br * tile, min((br + 1) * tile, rows)
        for bc in range((cols + tile - 1) // tile):
            if triangular and bc > br:
                continue
            c0, c1 = bc * tile, min((bc + 1) * tile, cols)
            tiles.append(Tile(r0, r1, c0, c1, triangular and bc == br))
    return tiles


#: Edge of the output block grid and the largest tile; a block's four
#: float64 planes are 2 MiB.
_BLOCK = 256


def _terms(kind: KernelKind, operands: tuple):
    """Check one GEMM/HERK/HER2K update; return ``(alpha, terms, beta, c)``.

    ``terms`` lists the ``(left, right, conj_left)`` products that, each
    scaled by alpha and summed in order, make the update's product: one
    for GEMM and HERK, two for HER2K (z^H*b, then b^H*z).  The kind alone
    decides the term count, so ``her2k(alpha, z, z, ...)`` still adds both
    terms.  The one check of the product contract: GEMM's ``opa`` is N or
    C and ``opb`` N, and for every kind alpha is real and beta 0 or 1.
    """
    if kind is KernelKind.GEMM:
        alpha, opa, a, opb, b, beta, c = operands
        if opa not in ("N", "C") or opb != "N":
            raise InputError(f"gemm ops must be N or C for a and N for b, got {opa!r}, {opb!r}")
        terms = [(a.T if opa == "C" else a, b, opa == "C")]
    elif kind is KernelKind.HERK:
        alpha, z, beta, c = operands
        terms = [(z.T, z, True)]
    elif kind is KernelKind.HER2K:
        alpha, z, b, beta, c = operands
        if z.shape != b.shape:
            raise DimensionError(f"z shape {z.shape} != b shape {b.shape}")
        terms = [(z.T, b, True), (b.T, z, True)]
    else:
        raise InputError(f"no tiled update for {kind!r}")
    left, right, _ = terms[0]
    if left.shape[1] != right.shape[0]:
        raise DimensionError(f"inner dimensions disagree: op(a) {left.shape} vs b {right.shape}")
    if c.shape != (left.shape[0], right.shape[1]):
        raise DimensionError(f"c has shape {c.shape}, expected {(left.shape[0], right.shape[1])}")
    if np.imag(alpha) != 0:
        raise InputError(f"alpha must be real, got {alpha!r}")
    if beta not in (0, 1):
        raise InputError(f"beta must be 0 or 1, got {beta!r}")
    return float(np.real(alpha)), terms, beta, c


def _tail(c, prod, beta, lower: bool) -> None:
    """c <- prod + beta*c on c's stored region, beta 0 or 1; ``prod`` None
    is a zero product.  ``lower`` stores only the lower triangle and makes
    the diagonal real."""
    if beta == 0:
        new = 0 if prod is None else prod
    else:
        new = c if prod is None else prod + c
    np.copyto(c, new, where=np.tri(*c.shape, dtype=bool) if lower else True)
    if lower:
        np.fill_diagonal(c.imag, 0)


def _run(kind: KernelKind, operands: tuple, edge: int, workers: int = 1):
    """The one tiled path: check one GEMM/HERK/HER2K update and run it on
    tiles of ``edge``; returns ``(tiles, panels)``, ``panels`` being the
    inner dimension times the number of terms computed (none when alpha
    is 0).

    Unless alpha is 0, each tile gets the exact product of every term,
    scaled by alpha and summed in order, then the tail.  Tiles never share
    an output element, so they run serially for one worker and on a thread
    pool otherwise with the same bits.  An empty output plans no tile.
    """
    alpha, terms, beta, c = _terms(kind, operands)
    inner = terms[0][0].shape[1]
    if alpha == 0:  # the product is skipped
        terms = []
    tiles = plan_tiles(*c.shape, edge, triangular=kind is not KernelKind.GEMM) if c.size else []

    def work(t: Tile) -> None:
        rows, cols = slice(t.row0, t.row1), slice(t.col0, t.col1)
        prod = None
        for left, right, conj_left in terms:
            p = _acc_product(left[rows], right[:, cols], conj_left)
            if alpha != 1:
                p = _cprod(alpha, p)
            prod = p if prod is None else prod + p
        _tail(c[rows, cols], prod, beta, t.diagonal)

    if workers == 1:
        for t in tiles:
            work(t)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, tiles))  # list() propagates worker exceptions
    return tiles, len(terms) * inner


# ---------------------------------------------------------------------------
# kernels


def gemm(alpha, opa: str, a, opb: str, b, beta, c):
    """c <- alpha*op(a)*b + beta*c, op(a) a or a^H (opa N or C, opb N);
    alpha real, beta 0 or 1. Updates c in place."""
    _run(KernelKind.GEMM, (alpha, opa, a, opb, b, beta, c), _BLOCK)
    return c


def hemm_left(alpha, t, b, beta, c):
    """c <- alpha*T*b + beta*c for the Hermitian T stored in t's lower triangle."""
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionError(f"t must be square, got {t.shape}")
    return gemm(alpha, "N", hermitian_mirror(t.astype(complex, order="F")), "N", b, beta, c)


def herk(alpha, a, beta, c):
    """Lower triangle of c <- alpha*a^H*a + beta*c; alpha real, beta 0 or 1."""
    _run(KernelKind.HERK, (alpha, a, beta, c), _BLOCK)
    return c


def her2k(alpha, z, b, beta, c):
    """Lower triangle of c <- alpha*(z^H*b + b^H*z) + beta*c, each product
    scaled by alpha before the sum; alpha real, beta 0 or 1."""
    _run(KernelKind.HER2K, (alpha, z, b, beta, c), _BLOCK)
    return c


def trmm_left_conjtrans(c_factor, a, c):
    """c <- C^H * a for the lower-triangular C stored in c_factor (c is
    write-only, as with beta 0)."""
    if c_factor.ndim != 2 or c_factor.shape[0] != c_factor.shape[1]:
        raise DimensionError(f"c_factor must be square, got {c_factor.shape}")
    _run(KernelKind.GEMM, (1, "C", np.tril(c_factor), "N", a, 0, c), _BLOCK)
    return c


def potrf_lower(t):
    """Lower Cholesky of the Hermitian matrix stored in t's lower triangle.

    Returns ``(factor, 0)`` on success, with factor @ factor^H reconstructing
    the matrix.  On failure returns ``(None, k)`` where k is the 1-based
    order of the first non-positive leading minor; failure is an expected
    data condition consumed by the builder's branch logic, not an error.

    Right-looking on two float64 planes: once column j of the factor is
    formed, ``L[i,j]*conj(L[m,j])`` is subtracted from the whole trailing
    block with the separated formula.  Every element still receives the
    same subtractions, in the same ascending column order, as the
    left-looking scalar loop, and the diagonal's ``lr*lr - li*(-li)`` equals that loop's
    ``lr*lr + li*li``, so factors and failure indices are bit-identical to
    it.
    """
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionError(f"potrf needs a square matrix, got {t.shape}")
    n = t.shape[0]
    w = np.array(np.tril(t), dtype=np.complex128, order="F")
    if not np.isfinite(w).all():
        raise InputError("potrf input contains non-finite entries")
    wr, wi = w.real, w.imag  # the trailing matrix as two float64 planes
    factor = zeros(n, n)
    for j in range(n):
        d = float(wr[j, j])
        if not d > 0.0:
            return None, j + 1
        ljj = math.sqrt(d)
        factor[j, j] = ljj
        if j + 1 < n:
            r = slice(j + 1, n)
            # complex-by-float division, as the scalar loop divides
            np.divide(w[r, j], ljj, out=factor[r, j])
            ur, ui = factor.real[r, j], factor.imag[r, j]
            vi = -ui  # conj(L[m, j]).imag
            wr[r, r] -= ur[:, None] * ur - ui[:, None] * vi
            wi[r, r] -= ur[:, None] * vi + ui[:, None] * ur
    return factor, 0


def diag_scale(u, b):
    """Scale row l of b by u[l] in place; u real, finite, nonnegative."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.shape[0] != b.shape[0]:
        raise DimensionError(f"u length {u.shape} does not match b rows {b.shape[0]}")
    if not np.isfinite(u).all():
        raise InputError("u contains non-finite entries")
    if (u < 0).any():
        raise InputError("u contains negative entries")
    b.real *= u[:, None]
    b.imag *= u[:, None]
    return b
