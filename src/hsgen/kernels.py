"""The computational kernels, and the flop formulas of the seven kinds
the ledger records.

Deterministic-accumulation contract: every kernel reduces over its inner
dimension in ascending order, one rank-1 update at a time, and complex
products are evaluated with the separated real-arithmetic formula
(xr*yr - xi*yi, xr*yi + xi*yr).  numpy's native complex multiply may
contract to FMA on SIMD paths, which perturbs the last ulp; decomposing by
hand keeps every element bit-identical to a scalar triple loop and makes
results independent of tile shape, worker count, and operand strides.

The numpy engine's accumulator keeps the real and imaginary parts on two
separate float64 planes, updated in place with ``out=`` ufuncs over
preallocated scratch (the native engine keeps them in registers).
This is bit-identical to accumulating complex rank-1 products: a complex
add adds the two parts independently, and each scratch plane holds exactly
the separated-formula term, computed with the same operands in the same
order, so every element sees the same sequence of IEEE operations, signed
zeros and infinities included.  NaN results land in the same places, but
their sign and payload are not part of the contract: IEEE 754 leaves them
unspecified, and numpy's SIMD body and scalar tail (and the native code)
pick different operands to propagate.

POTRF is right-looking on the same two-plane layout (``_potrf`` says
why that keeps the bits of the left-looking scalar loop).  The native
engine runs the same operations in C; its column scaling copies numpy's
complex-by-float division (Smith's form with a +0.0 imaginary divisor),
not a plain ``re/l``.

GEMM, HERK and HER2K share one tiled driver, ``run_partitioned``, which
emulates output-partitioned multi-device BLAS on threads.  It checks the
update into one product ``op(L) R`` whose operands join one or two terms
along the inner dimension, cuts the output into tiles on the policy's
grid, and computes each tile whole, by exactly one worker, as that exact
product plus one tail; the workers take the tiles from one queue
(``_share``).  Every tile consumes the full inner dimension, no
cross-tile reduction exists, and every element gets the same operations
on any grid, so the bits are the same for every worker count and tile
size.  A tile is at most one block of the fixed ``_BLOCK`` grid, so its
accumulator stays in cache: ``ExecPolicy`` stores an edge above it as
the block edge.  Tiles above the diagonal of a triangular output are
never planned, and an empty output plans none.  A conjugated L is a view
with the update's one flag, negated as it is copied.  The public GEMM,
HERK and HER2K run the driver under the default policy: one worker on
the ``_BLOCK`` grid.  Every kernel writes the output it is given and
returns it.

An engine (``ENGINES``) is one object with five entry points, chosen by
name in ``_engine`` alone, that calls only its own code:
``tile_update(terms, conj_left, alpha, beta, c, lower)`` writes one tile
of the caller's output for ``run_partitioned``; ``potrf_atoms``,
``loop1_atoms`` and ``loop2_atoms`` run a build's per-atom loops over one
chunk's stacked blocks, for ``potrf_route``, ``loop1`` and ``loop2``: the
only place HEMM, TRMM and POTRF run; and ``mirror_columns(c, c0, c1)``
fills columns [c0, c1) of c's Hermitian mirror for ``hermitian_mirror``.
``native``, the default, is the module ``native.py``, whose C does all
five; ``numpy`` is ``_NUMPY``: ``_numpy_update`` (``_acc_product``,
alpha, then ``_tail``), the oracle the native engine is tested against;
loops that run ``_potrf`` and each product per tile (``_numpy_product``),
HEMM over ``_herm``'s T and TRMM over the conjugated factor; and
``_mirror_columns``.  Both run the same operations per element, so H and
S have the same bits under either.
Native Loop 2 runs TRMM on the triangle only: it skips the zeros before
the diagonal of each row of C^H, which add only +-0 to a +0.0 start, so
the bits are the same for finite operands.

A multi-worker update or mirror puts its tasks on one shared queue
(``_share``): ``workers - 1`` helper threads and the calling thread take
tasks from it until it is empty.  The helpers come from one pool per
helper count, made on first use and kept for the life of the process
(``_pool``), so later builds start no thread; a forked child forgets
the parent's pools, whose threads it does not have.

One update contract, the one the pipeline uses, checked once in
``_terms`` so that the engines carry no special path: alpha is real and
nonzero, beta is 0 or 1, only the left operand may be conjugated (GEMM's
``opa`` N or C, ``opb`` N), and the operands and the writeable output are
aligned complex128 arrays with whole-element strides, as BLAS ``z``
routines take them.  Anything else is an ``InputError`` that leaves the
output as it was.  Beta 0 makes the output write-only, and a unit alpha
or beta passes values through bitwise.
"""

from __future__ import annotations

import enum
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import native
from .matcore import DimensionError, InputError, int_fields, zeros


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


def _acc_product(terms, conj_left: bool):
    """op(L) @ R with ascending-k rank-1 updates, where L and R join the
    ``(left, right)`` terms along k, one term after the other, and op
    conjugates L when ``conj_left`` is set.

    Per step only the k-th column of L and row of R are copied, into small
    contiguous vectors; whole panels are never copied, so the working set
    stays at the two accumulator planes plus two scratch planes.
    """
    m, n = terms[0][0].shape[0], terms[0][1].shape[1]
    acc_r = np.zeros((m, n), order="F")
    acc_i = np.zeros((m, n), order="F")
    t1 = np.empty((m, n), order="F")
    t2 = np.empty((m, n), order="F")
    col = np.empty((2, m))
    row = np.empty((2, n))
    xr, xi = col[0, :, None], col[1, :, None]
    yr, yi = row[0], row[1]
    sign = np.negative if conj_left else np.positive  # both exact
    for left, right in terms:
        ar, ai, br, bi = left.real, left.imag, right.real, right.imag
        for k in range(left.shape[1]):
            np.copyto(col[0], ar[:, k])
            sign(ai[:, k], out=col[1])
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
# the per-tile driver


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


def _terms(kind: KernelKind, operands: tuple):
    """Check one GEMM/HERK/HER2K update; return ``(alpha, terms,
    conj_left, beta, c)``: its product is ``op(L) R``, where L and R join
    the ``(left, right)`` terms along k and op conjugates L when
    ``conj_left`` is set.  GEMM and HERK have one term, HER2K two (z^H*b,
    then b^H*z: ``[z; b]^H [b; z]``), so ``her2k(alpha, z, z, ...)`` still
    runs both.  The one check of the update contract (see the module
    docstring); nothing is written before it passes.
    """
    conj_left = True
    if kind is KernelKind.GEMM:
        alpha, opa, a, opb, b, beta, c = operands
        if opa not in ("N", "C") or opb != "N":
            raise InputError(f"gemm ops must be N or C for a and N for b, got {opa!r}, {opb!r}")
        conj_left = opa == "C"
        terms = [(a.T if conj_left else a, b)]
    elif kind is KernelKind.HERK:
        alpha, z, beta, c = operands
        terms = [(z.T, z)]
    elif kind is KernelKind.HER2K:
        alpha, z, b, beta, c = operands
        if z.shape != b.shape:
            raise DimensionError(f"z shape {z.shape} != b shape {b.shape}")
        terms = [(z.T, b), (b.T, z)]
    else:
        raise InputError(f"no tiled update for {kind!r}")
    _check_arrays([x for term in terms for x in term], [c])
    left, right = terms[0]
    if left.shape[1] != right.shape[0]:
        raise DimensionError(f"inner dimensions disagree: op(a) {left.shape} vs b {right.shape}")
    if c.shape != (left.shape[0], right.shape[1]):
        raise DimensionError(f"c has shape {c.shape}, expected {(left.shape[0], right.shape[1])}")
    if np.imag(alpha) != 0 or np.real(alpha) == 0:
        raise InputError(f"alpha must be real and nonzero, got {alpha!r}")
    if beta not in (0, 1):
        raise InputError(f"beta must be 0 or 1, got {beta!r}")
    return float(np.real(alpha)), terms, conj_left, beta, c


def _check_arrays(operands, outputs=()) -> None:
    """InputError unless every operand and output is an aligned complex128
    array with whole-element strides, as the engines take them, and every
    output is writeable."""
    arrays = all(isinstance(x, np.ndarray) and x.dtype == np.complex128 and x.flags.aligned
                 and not any(s % x.itemsize for s in x.strides) for x in (*operands, *outputs))
    if not (arrays and all(x.flags.writeable for x in outputs)):
        raise InputError("operands and outputs must be aligned complex128 arrays with "
                         "whole-element strides, and the outputs writeable")


def _tail(c, prod, beta, lower: bool) -> None:
    """c <- prod + beta*c on c's stored region, beta 0 or 1.  ``lower``
    stores only the lower triangle and makes the diagonal real."""
    np.copyto(c, prod + c if beta else prod, where=np.tri(*c.shape, dtype=bool) if lower else True)
    if lower:
        np.fill_diagonal(c.imag, 0)


def _numpy_update(terms, conj_left: bool, alpha: float, beta, c, lower: bool) -> None:
    """The numpy engine's per-tile update: the exact product over the
    ``(left, right)`` terms (see ``_acc_product``), scaled by alpha unless
    it is 1, then the tail into ``c``."""
    prod = _acc_product(terms, conj_left)
    _tail(c, prod if alpha == 1 else _cprod(alpha, prod), beta, lower)


#: Edge of the output block grid and the largest tile; a block's four
#: float64 planes are 2 MiB.
_BLOCK = 256

#: Engine names; the first is the default.
ENGINES = ("native", "numpy")


def _engine(name: str):
    """The engine named ``name``: the ``native`` module, its library loaded
    on first use, or ``_NUMPY``; InputError for an unknown name."""
    if name not in ENGINES:
        raise InputError(f"engine must be one of {ENGINES}, got {name!r}")
    if name == "numpy":
        return _NUMPY
    native.load()
    return native


@dataclass(frozen=True)
class ExecPolicy:
    """Worker count, output-tile edge and per-tile product engine
    (``ENGINES``) for ``run_partitioned``.  An edge above ``_BLOCK`` is
    stored as ``_BLOCK``, the edge that runs."""

    workers: int = 1
    tile: int = _BLOCK
    engine: str = ENGINES[0]

    def __post_init__(self):
        int_fields(self, workers=1, tile=32)
        object.__setattr__(self, "tile", min(self.tile, _BLOCK))
        if self.engine not in ENGINES:
            raise InputError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass(frozen=True)
class ExecResult:
    n_tiles: int
    bytes_touched: int


_pools: dict[int, ThreadPoolExecutor] = {}  # helper count -> its pool
_pools_lock = threading.Lock()


def _pool(helpers: int) -> ThreadPoolExecutor:
    """The process-wide pool of ``helpers`` threads, made on first use.
    A thread is started only when a task finds none idle, and then kept:
    in a 2-worker HERK at n_g 768 and inner dimension 64 on a pool made
    for it, the second thread began its first tile 1.5 ms after the
    first, in a 3.8 ms update."""
    with _pools_lock:
        if helpers not in _pools:
            _pools[helpers] = ThreadPoolExecutor(helpers, thread_name_prefix="hsgen")
        return _pools[helpers]


def _forget_pools() -> None:
    """In a forked child: drop the parent's pools, whose threads did not
    survive the fork, and a lock some parent thread may have held."""
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pools)


def _share(fn, items: list, workers: int) -> None:
    """Call ``fn`` once on each of ``items``: in order on the calling
    thread for one worker; otherwise ``min(workers, len(items)) - 1``
    helpers of ``_pool(workers - 1)`` and the calling thread take items
    from one queue until it is empty.

    Then the helpers that have not started are cancelled, and the caller
    waits for the ones that have before it returns or raises, so every
    started call has returned when an error surfaces: the caller's own,
    or else a helper's, re-raised here.
    """
    helpers = min(workers, len(items)) - 1
    if helpers < 1:
        for item in items:
            fn(item)
        return
    queue, lock = iter(items), threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                item = next(queue, queue)  # the iterator itself marks the end
            if item is queue:
                return
            fn(item)

    pool = _pool(workers - 1)
    futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # a cancelled future is done only once a pool thread dequeues it
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for f in started:
        f.result()


def run_partitioned(kind: KernelKind, operands: tuple, policy: ExecPolicy) -> ExecResult:
    """The one tiled path: check one GEMM/HERK/HER2K update and run it on
    the policy's tiles and workers, one call of its engine's update per
    tile; updates the output in place.

    Operand tuples mirror the public kernels: GEMM
    ``(alpha, opa, a, opb, b, beta, c)``, HERK ``(alpha, a, beta, c)``,
    HER2K ``(alpha, z, b, beta, c)``.  Each tile gets the exact product
    over every term, scaled by alpha, then the tail.  Tiles never share an
    output element, so ``_share`` runs them on any number of workers with
    the same bits.  An empty output plans no tile.  ``bytes_touched``
    counts, per tile, the output tile plus one row and one column panel of
    the inner dimension per product term.  An update outside the contract
    is an ``InputError`` that leaves the output as it was.
    """
    alpha, terms, conj_left, beta, c = _terms(kind, operands)
    update = _engine(policy.engine).tile_update
    triangular = kind is not KernelKind.GEMM
    tiles = plan_tiles(*c.shape, policy.tile, triangular) if c.size else []

    def work(t: Tile) -> None:
        rows, cols = slice(t.row0, t.row1), slice(t.col0, t.col1)
        update([(left[rows], right[:, cols]) for left, right in terms], conj_left,
               alpha, beta, c[rows, cols], t.diagonal)

    _share(work, tiles, policy.workers)
    panels = len(terms) * terms[0][0].shape[1]
    bytes_touched = sum(((t.row1 - t.row0) * (t.col1 - t.col0)
                         + panels * (t.row1 - t.row0 + t.col1 - t.col0)) * c.itemsize
                        for t in tiles)
    return ExecResult(len(tiles), bytes_touched)


def hermitian_mirror(m, *more, workers: int = 1, engine: str = ENGINES[0]):
    """Make ``m`` and each of ``more`` the Hermitian matrix of its lower
    triangle in place, the diagonal's imaginary part +0.0; returns ``m``.
    All are checked before any is written: a matrix ``_check_arrays``
    refuses as an output, or not 2-D, is an InputError, a non-square one
    a DimensionError.  The ``_BLOCK``-wide column blocks of all of them
    are one task list for ``_share``, the largest first; copies and sign
    flips are exact, so the split does not change a bit."""
    outputs = (m, *more)
    _check_arrays((), outputs)
    for c in outputs:
        if c.ndim != 2:
            raise InputError(f"hermitian_mirror takes matrices, got shape {c.shape}")
        if c.shape[0] != c.shape[1]:
            raise DimensionError(f"hermitian_mirror takes square matrices, got shape {c.shape}")
    fill = _engine(engine).mirror_columns
    blocks = [(c, j0, min(j0 + _BLOCK, len(c))) for c in outputs
              for j0 in range(0, len(c), _BLOCK)]
    blocks.sort(key=lambda b: b[2] * (b[2] - 1) - b[1] * (b[1] - 1), reverse=True)
    _share(lambda b: fill(*b), blocks, workers)
    return m


# ---------------------------------------------------------------------------
# kernels


def gemm(alpha, opa: str, a, opb: str, b, beta, c, engine: str = ENGINES[0]):
    """c <- alpha*op(a)*b + beta*c, op(a) a or a^H (opa N or C, opb N);
    alpha real and nonzero, beta 0 or 1. Updates c in place."""
    run_partitioned(KernelKind.GEMM, (alpha, opa, a, opb, b, beta, c), ExecPolicy(engine=engine))
    return c


def herk(alpha, a, beta, c, engine: str = ENGINES[0]):
    """Lower triangle of c <- alpha*a^H*a + beta*c; alpha real, nonzero; beta 0 or 1."""
    run_partitioned(KernelKind.HERK, (alpha, a, beta, c), ExecPolicy(engine=engine))
    return c


def her2k(alpha, z, b, beta, c, engine: str = ENGINES[0]):
    """Lower triangle of c <- alpha*[z; b]^H [b; z] + beta*c, that is
    alpha*(z^H*b + b^H*z) as one ascending-k sum; alpha real and nonzero,
    beta 0 or 1."""
    run_partitioned(KernelKind.HER2K, (alpha, z, b, beta, c), ExecPolicy(engine=engine))
    return c


def _potrf(t, factor) -> int:
    """Factor the Hermitian matrix stored in t's lower triangle into the
    lower triangle of ``factor``, whose strict upper triangle must be zero
    and stays so; returns 0, or the 1-based order of the first
    non-positive leading minor (``factor`` then holds a partial factor).

    Right-looking on two float64 planes: once column j of the factor is
    formed, ``L[i,j]*conj(L[m,j])`` is subtracted from the whole trailing
    block with the separated formula.  Every element still receives the
    same subtractions, in the same ascending column order, as the
    left-looking scalar loop, and the diagonal's ``lr*lr - li*(-li)`` equals that loop's
    ``lr*lr + li*li``, so factors and failure indices are bit-identical to
    it.  The native engine runs the same operations in C (``native.c``'s
    ``potrf``), with the column scaled as numpy divides a complex number by
    a real one.
    """
    n = t.shape[0]
    w = np.array(np.tril(t), dtype=np.complex128, order="F")
    wr, wi = w.real, w.imag  # the trailing matrix as two float64 planes
    for j in range(n):
        d = float(wr[j, j])
        if not d > 0.0:
            return j + 1
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
    return 0


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


# ---------------------------------------------------------------------------
# the per-atom loops of a build, one call per chunk of atoms


def _chunk(squares, blocks=(), outputs=()):
    """Check one chunk's stacks for the per-atom loops: ``squares``
    (count, n, n), ``blocks`` (count, n, m) and writeable ``outputs``
    (count*n, m), all as ``_check_arrays`` takes them; returns n."""
    count, n = len(squares[0]), squares[0].shape[-1]
    m = blocks[0].shape[-1] if blocks else n
    for xs, shape in ((squares, (count, n, n)), (blocks, (count, n, m)), (outputs, (count * n, m))):
        for x in xs:
            if x.shape != shape:
                raise DimensionError(f"a chunk stack has shape {x.shape}, expected {shape}")
    _check_arrays((*squares, *blocks), outputs)
    return n


def loop1(t_ab, a, t_bb, b, z, engine: str = ENGINES[0]):
    """Loop 1 over one chunk's stacked blocks: rows [i n, (i+1) n) of z get
    T_ab,i^H A_i + 1/2 herm(T_bb,i) B_i, a GEMM then a HEMM; returns each
    atom's ``(GEMM, HEMM)`` seconds, shape (count, 2)."""
    _chunk((t_ab, t_bb), (a, b), (z,))
    return _engine(engine).loop1_atoms(t_ab, a, t_bb, b, z)


def potrf_route(t_aa, engine: str = ENGINES[0]):
    """Loop 2's split, the one place a build decides it: factor each block
    of the stack ``t_aa`` as ``_potrf`` does and keep no factor;
    returns ``(info, seconds)``, per atom its failure index (0 if it
    factored, and then goes down TRMM and H3; HEMM and H2 otherwise) and
    the factorization's time."""
    n = _chunk((t_aa,))
    return _engine(engine).potrf_atoms(t_aa, zeros(n, n))


def loop2(info, t_aa, a, y, x, engine: str = ENGINES[0]):
    """Loop 2's rows over one chunk's stacked blocks, in atom order: an atom
    whose ``info`` is 0 is factored again and writes C^H A_i into the next
    n-row slot of y (TRMM); any other writes herm(T_aa,i) A_i into the next
    slot of x (HEMM).  Returns each atom's ``(refactorization, product)``
    seconds, shape (count, 2), the first 0 for a HEMM atom."""
    _chunk((t_aa,), (a,), (y, x))
    info = np.ascontiguousarray(info, dtype=np.intc)
    if len(info) != len(a):
        raise DimensionError(f"{len(info)} routes for {len(a)} atoms")
    return _engine(engine).loop2_atoms(info, t_aa, a, y, x)


# ---------------------------------------------------------------------------
# the numpy engine: native.py's five entry points, on _numpy_update per tile


#: Edge of the square blocks ``_mirror_columns`` copies: a block and its
#: transposed source (64 KiB each) stay in cache together.
_MIRROR_BLOCK = 64


def _mirror_columns(c, c0: int, c1: int) -> None:
    """``hermitian_mirror`` of the square ``c`` on columns [c0, c1) only,
    filled one ``_MIRROR_BLOCK`` square at a time from the transposed
    source block, so the working set beyond ``c`` stays at one diagonal
    block's indices.  ``native.c``'s ``mirror_columns`` visits the same
    elements in another order (8-column strips, row by row, so that each
    source run is contiguous) and is tested against this one.  Every
    element written is one exact copy or sign flip, so any split of the
    columns, and either order, gives the same bits."""
    b = _MIRROR_BLOCK
    whole = np.triu_indices(b, k=1)
    for j0 in range(c0, c1, b):
        j1 = min(j0 + b, c1)
        for i0 in range(0, j0, b):
            i1 = min(i0 + b, j0)
            np.conj(c[j0:j1, i0:i1].T, out=c[i0:i1, j0:j1])
        blk = c[j0:j1, j0:j1]
        iu = whole if j1 - j0 == b else np.triu_indices(j1 - j0, k=1)
        blk[iu] = np.conj(blk.T[iu])
        np.fill_diagonal(blk.imag, 0)


def _herm(t):
    """herm(T): a copy of the square ``t`` that ``_mirror_columns`` fills."""
    w = np.array(t, order="F")
    _mirror_columns(w, 0, len(w))
    return w


def _numpy_product(left, conj_left: bool, right, alpha: float, beta, c) -> None:
    """c <- alpha*op(left) right + beta*c, one ``_numpy_update`` per tile
    of the ``_BLOCK`` grid, as ``native.c``'s ``product`` runs it."""
    for t in plan_tiles(*c.shape, _BLOCK):
        rows, cols = slice(t.row0, t.row1), slice(t.col0, t.col1)
        _numpy_update([(left[rows], right[:, cols])], conj_left, alpha, beta, c[rows, cols], False)


def _numpy_potrf_atoms(t, w):
    """``_potrf`` of each block of the stack ``t`` into ``w``; returns
    ``(info, seconds)`` as ``native.potrf_atoms`` does."""
    info, seconds = np.empty(len(t), dtype=np.intc), np.empty(len(t))
    for i, block in enumerate(t):
        t0 = time.perf_counter()
        info[i] = _potrf(block, w)
        seconds[i] = time.perf_counter() - t0
    return info, seconds


def _numpy_loop1_atoms(t_ab, a, t_bb, b, z):
    """``native.loop1_atoms`` atom by atom: the product T_ab^H A, then the
    HEMM as the product over ``_herm(T_bb)``."""
    n = b.shape[1]
    seconds = np.empty((len(a), 2))
    for i in range(len(a)):
        rows = z[i * n : (i + 1) * n]
        t0 = time.perf_counter()
        _numpy_product(t_ab[i].T, True, a[i], 1.0, 0, rows)
        t1 = time.perf_counter()
        _numpy_product(_herm(t_bb[i]), False, b[i], 0.5, 1, rows)
        seconds[i] = t1 - t0, time.perf_counter() - t1
    return seconds


def _numpy_loop2_atoms(info, t, a, y, x):
    """``native.loop2_atoms`` atom by atom: ``_potrf`` then TRMM as the
    conjugated product over the factor, whose upper triangle ``_potrf``
    leaves zero, or HEMM as the product over ``_herm(T)``."""
    n = a.shape[1]
    factor = zeros(n, n)
    seconds = np.empty((len(a), 2))
    ys = xs = 0
    for i, (ti, ai) in enumerate(zip(t, a)):
        t0 = t1 = time.perf_counter()
        if info[i] == 0:
            _potrf(ti, factor)
            t1 = time.perf_counter()
            _numpy_product(factor.T, True, ai, 1.0, 0, y[ys : ys + n])
            ys += n
        else:
            _numpy_product(_herm(ti), False, ai, 1.0, 0, x[xs : xs + n])
            xs += n
        seconds[i] = t1 - t0, time.perf_counter() - t1
    return seconds


_NUMPY = SimpleNamespace(tile_update=_numpy_update, potrf_atoms=_numpy_potrf_atoms,
                         loop1_atoms=_numpy_loop1_atoms, loop2_atoms=_numpy_loop2_atoms,
                         mirror_columns=_mirror_columns)
