"""The native exact engine: the per-tile update of ``native.c``, compiled
on first use and called through ctypes.

``tile_update`` does in one call what ``kernels._numpy_update`` does for
one tile: one exact product over every term's inner dimension in turn,
alpha and the tail into the caller's output, with the same IEEE
operations per element, so the two engines give the same bits (NaN sign
and payload aside, which neither fixes).  The library is built with ``cc -O3
-march=native -ffp-contract=off -fPIC -shared``, never with
``-ffast-math``, into ``$XDG_CACHE_HOME/hsgen`` (or ``~/.cache/hsgen``)
under a name keyed by the SHA-256 of the source, the flags, ``cc
--version`` and this host's CPU flags, since ``-march=native`` ties the
code to the CPU.  It is written to a temporary file and renamed into
place, so concurrent first uses never load a partial file.  A missing or
failing compiler is an ``InputError`` that names it; there is no silent
fallback to the numpy engine.

ctypes releases the interpreter lock during the call, so the executor's
workers run whole tiles in parallel.  The blocking (register tile,
k-block depth, plane and pack layout) is ``native.c``'s alone: its
``tile_scratch`` says how many doubles a tile needs, and the scratch is
one numpy array of that size, so tracemalloc sees all of the engine's
memory; the C code allocates nothing.  The operands and ``c`` are taken
as ``kernels._terms`` checked them: aligned complex128 arrays whose
strides are whole elements.
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


def _strides(x: np.ndarray):
    return (s // _ITEM for s in x.strides)


def _address(x: np.ndarray) -> int:
    # not x.ctypes.data: that object sits in a reference cycle, so every
    # call would leave garbage for the collector and move the build's peak
    return x.__array_interface__["data"][0]
