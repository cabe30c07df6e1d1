"""The native exact engine: ``native.c``, compiled on first use and
called through ctypes.

This module is the engine object: the five entry points that
``kernels._engine`` returns for ``native``, as ``kernels._NUMPY`` has
them for ``numpy``.  ``tile_update`` does in one call what
``kernels._numpy_update`` does for one tile: one exact product over
every term's inner dimension in turn, alpha and the tail into the
caller's output, with the same IEEE operations per element, so the two
engines give the same bits (NaN sign and payload aside, which neither
fixes).  ``potrf_atoms``, ``loop1_atoms`` and ``loop2_atoms`` run a
build's per-atom loops over a chunk's stacks in one call each, with the
same bits as the numpy engine's loops; they are the engine's only POTRF,
HEMM and TRMM.  ``mirror_columns`` fills a range of columns of a
build's Hermitian mirror as ``kernels._mirror_columns`` does.  C times
each kernel with ``clock_gettime(CLOCK_MONOTONIC)`` and returns the
seconds for the ledger.

The library is built with ``cc -O3
-march=native -ffp-contract=off -fPIC -shared``, never with
``-ffast-math``, into ``$XDG_CACHE_HOME/hsgen`` (or ``~/.cache/hsgen``)
under a name keyed by the SHA-256 of the source, the flags, ``cc
--version`` and this host's CPU flags, since ``-march=native`` ties the
code to the CPU.  It is written to a temporary file and renamed into
place, so concurrent first uses never load a partial file.  A missing or
failing compiler is an ``InputError`` that names it; there is no silent
fallback to the numpy engine.

ctypes releases the interpreter lock during the call, so the executor's
workers run whole tiles, and the mirror's column blocks, in parallel.
The blocking (register tile, k-block depth, plane and pack layout) is
``native.c``'s alone: its ``tile_scratch`` and ``atoms_scratch`` say how
many doubles a tile or a loop needs, and the scratch is one numpy array
of that size, so tracemalloc sees all of the engine's memory; the C code
allocates nothing.  The operands and outputs are taken as ``kernels`` checked them:
aligned complex128 arrays whose strides are whole elements.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .matcore import InputError

_SOURCE = Path(__file__).with_name("native.c")
_COMPILER = "cc"
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

_ITEM = 16  # bytes per complex128; native.c takes strides in elements

_lock = threading.Lock()
_lib = None  # the loaded library, once per process


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "hsgen"


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line for line in f if line.startswith("flags")), "")
    except OSError:
        return platform.machine() + platform.processor()


def _run_compiler(argv: list) -> str:
    """Run the compiler; InputError with its stderr if it fails."""
    try:
        done = subprocess.run(argv, capture_output=True, text=True)
    except OSError as exc:
        raise InputError(f"the native engine cannot run the C compiler {argv[0]!r}: {exc}; "
                         "pass --engine numpy to run without it") from exc
    if done.returncode != 0:
        raise InputError(f"the C compiler {argv[0]!r} failed to build the native engine "
                         f"(exit {done.returncode}): {done.stderr.strip()}; "
                         "pass --engine numpy to run without it")
    return done.stdout


def _load():
    if shutil.which(_COMPILER) is None:
        raise InputError(f"the native engine needs the C compiler {_COMPILER!r}, which is not "
                         "on PATH; pass --engine numpy to run without it")
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, " ".join(_FLAGS).encode(),
                                     _run_compiler([_COMPILER, "--version"]).encode(),
                                     _cpu_flags().encode()])).hexdigest()
    path = _cache_dir() / f"native-{key[:24]}.so"
    if not path.is_file():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
            os.close(fd)
        except OSError as exc:
            raise InputError(f"cannot cache the native engine in {path.parent}: {exc}; "
                             "pass --engine numpy to run without it") from exc
        try:
            _run_compiler([_COMPILER, *_FLAGS, "-o", tmp, str(_SOURCE)])
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise InputError(f"cannot load the native engine from {path}: {exc}; "
                         "pass --engine numpy to run without it") from exc
    idx, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    lib.tile_scratch.argtypes = [idx, idx, idx, ctypes.c_int]
    lib.tile_scratch.restype = ctypes.c_size_t
    term = [ptr, idx, idx, ptr, idx, idx]  # left, its strides, right, its strides
    lib.tile_update.argtypes = [idx, idx, idx, ctypes.c_int, *term, *term, ctypes.c_int,
                                ctypes.c_double, ctypes.c_int, ctypes.c_int, ptr, idx, idx, ptr]
    lib.tile_update.restype = None
    lib.atoms_scratch.argtypes = [idx, idx]
    lib.atoms_scratch.restype = ctypes.c_size_t
    stack = [ptr, idx, idx, idx]  # first element, atom, row and column strides
    lib.potrf_atoms.argtypes = [idx, idx, *stack, ptr, ptr, ptr]
    lib.loop1_atoms.argtypes = [idx, idx, idx, *stack, *stack, *stack, *stack, *stack, ptr, ptr]
    lib.loop2_atoms.argtypes = [idx, idx, idx, ptr, *stack, *stack, *stack, *stack, ptr, ptr]
    lib.mirror_columns.argtypes = [ptr, idx, idx, idx, idx]
    for name in ("potrf_atoms", "loop1_atoms", "loop2_atoms", "mirror_columns"):
        getattr(lib, name).restype = None
    return lib


def load() -> None:
    """Build and load the library on first use; InputError if it cannot."""
    global _lib
    with _lock:
        if _lib is None:
            _lib = _load()


def tile_update(terms, conj_left: bool, alpha: float, beta, c, lower: bool) -> None:
    """c <- alpha*op(L)*R + beta*c on c's stored region, bit-identical to
    ``kernels._numpy_update``: L and R join one or two ``(left, right)``
    terms along k, op conjugates L if ``conj_left``, alpha is nonzero, beta
    0 or 1, and ``lower`` stores only c's lower triangle, with a real
    diagonal.  Call ``load()`` first."""
    if len(terms) not in (1, 2):
        raise InputError("the native engine takes one or two terms")
    m, n = c.shape
    k = terms[0][0].shape[1]
    scratch = np.empty(_lib.tile_scratch(m, n, k, len(terms)))
    args = [x for term in terms for v in term for x in (_address(v), *_strides(v))]
    # C reads only the first len(terms) of its two operand pairs
    _lib.tile_update(m, n, k, len(terms), *(args * 2)[:12], conj_left, alpha, int(beta),
                     int(lower), _address(c), *_strides(c), _address(scratch))


def potrf_atoms(t, w):
    """Factor each n x n block of the stack ``t`` as ``kernels._potrf``
    does, into the n x n complex128 Fortran array ``w``, which keeps the
    last block's factor; returns ``(info, seconds)``, each block's failure
    index (0 if it factored) and time."""
    count, n = t.shape[:2]
    info, seconds = np.empty(count, dtype=np.intc), np.empty(count)
    _lib.potrf_atoms(count, n, *_stack(t), _address(info), _address(seconds), _address(w))
    return info, seconds


def loop1_atoms(t_ab, a, t_bb, b, z):
    """Per atom i of the stacks: z_i <- T_ab,i^H A_i, then z_i <- 1/2
    herm(T_bb,i) B_i + z_i, where z_i is rows [i n, (i+1) n) of ``z``;
    returns the ``(count, 2)`` seconds of the two products."""
    count, n, m = b.shape
    seconds = np.empty((count, 2))
    scratch = np.empty(_lib.atoms_scratch(n, m))
    _lib.loop1_atoms(count, n, m, *_stack(t_ab), *_stack(a), *_stack(t_bb), *_stack(b),
                     *_slots(z, n), _address(seconds), _address(scratch))
    return seconds


def loop2_atoms(info, t, a, y, x):
    """Per atom i of the stacks, in order: if the intc ``info[i]`` is 0,
    C^H A_i into the next n-row slot of ``y``, C being the factor of T_i,
    else herm(T_i) A_i into the next slot of ``x``; returns the
    ``(count, 2)`` seconds of the factorization (0 for a HEMM atom) and
    the product."""
    count, n, m = a.shape
    seconds = np.empty((count, 2))
    scratch = np.empty(_lib.atoms_scratch(n, m))
    _lib.loop2_atoms(count, n, m, _address(info), *_stack(t), *_stack(a), *_slots(y, n),
                     *_slots(x, n), _address(seconds), _address(scratch))
    return seconds


def mirror_columns(c, c0: int, c1: int) -> None:
    """Columns [c0, c1) of the square ``c``'s Hermitian mirror, in place,
    bit-identical to ``kernels._mirror_columns``."""
    _lib.mirror_columns(_address(c), *_strides(c), c0, c1)


def _stack(x: np.ndarray):
    """A stack of blocks as C takes it: the first element, then the atom,
    row and column strides in elements."""
    return (_address(x), *_strides(x))


def _slots(buf: np.ndarray, rows: int):
    """The 2-D ``buf`` as a stack of ``rows``-row slots."""
    s0, s1 = _strides(buf)
    return _address(buf), rows * s0, s0, s1


def _strides(x: np.ndarray):
    return (s // _ITEM for s in x.strides)


def _address(x: np.ndarray) -> int:
    # not x.ctypes.data: that object sits in a reference cycle, so every
    # call would leave garbage for the collector and move the build's peak
    return x.__array_interface__["data"][0]
