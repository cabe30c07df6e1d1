"""The native exact engine: the per-tile update of ``native.c``, compiled
on first use and called through ctypes.

``tile_update`` does in one call what ``kernels._numpy_update`` does for
one tile: the exact product of every term, alpha, the term sum and the
tail into the caller's output, with the same IEEE operations per
element, so the two engines give the same bits (NaN sign and payload
aside, which neither fixes).  The library is built with ``cc -O3
-march=native -ffp-contract=off -fPIC -shared``, never with
``-ffast-math``, into ``$XDG_CACHE_HOME/hsgen`` (or ``~/.cache/hsgen``)
under a name keyed by the SHA-256 of the source, the flags, ``cc
--version`` and this host's CPU flags, since ``-march=native`` ties the
code to the CPU.  It is written to a temporary file and renamed into
place, so concurrent first uses never load a partial file.  A missing or
failing compiler is an ``InputError`` that names it; there is no silent
fallback to the numpy engine.

ctypes releases the interpreter lock during the call, so the executor's
workers run whole tiles in parallel.  The scratch (the packs, and the
plane pairs a tile needs) is one numpy array sized by the tile, so
tracemalloc sees all of the engine's memory; the C code allocates
nothing.
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

from .matcore import DimensionError, InputError

_SOURCE = Path(__file__).with_name("native.c")
_COMPILER = "cc"
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

#: Deepest inner-dimension block: a 256-row pack is 256 KiB.  A smaller
#: tile gets a shallower block, so its packs never outgrow one plane pair.
KC = 64
_MR, _NR = 8, 4  # the register tile of native.c
_ITEM = 16  # bytes per complex128; native.c takes strides in elements

_lock = threading.Lock()
_kernel = None  # the loaded tile_update, once per process


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
        fn = ctypes.CDLL(str(path)).tile_update
    except OSError as exc:
        raise InputError(f"cannot load the native engine from {path}: {exc}; "
                         "pass --engine numpy to run without it") from exc
    idx, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    term = [ptr, idx, idx, ptr, idx, idx]  # left, its strides, right, its strides
    fn.argtypes = [idx, idx, idx, idx, ctypes.c_int, *term, *term, ctypes.c_int,
                   ctypes.c_double, ctypes.c_int, ctypes.c_int, ptr, idx, idx, ptr, ptr, ptr]
    fn.restype = None
    return fn


def load() -> None:
    """Build and load the library on first use; InputError if it cannot."""
    global _kernel
    with _lock:
        if _kernel is None:
            _kernel = _load()


def _operand(x) -> np.ndarray:
    """x as complex128 whose strides are whole elements (a copy otherwise)."""
    x = np.asarray(x, dtype=np.complex128)
    if not x.flags.aligned or any(s % _ITEM for s in x.strides):
        x = x.copy()
    return x


def tile_update(terms, alpha: float, beta, c, lower: bool) -> None:
    """c <- alpha * (sum of the terms' products) + beta*c on c's stored
    region, bit-identical to ``kernels._numpy_update``: ``terms`` is a list
    of at most two ``(left, right, conj_left)`` products sharing their
    flag, none for a zero alpha; beta is 0 or 1; ``lower`` stores only
    c's lower triangle and makes its diagonal real.  Call ``load()``
    first."""
    if len(terms) > 2 or len({flag for _, _, flag in terms}) > 1:
        raise InputError("the native engine takes at most two terms with one conj_left flag")
    ops = [(_operand(left), _operand(right)) for left, right, _ in terms]
    # C writes complex128 elements through c's strides; any other c is
    # updated through a copy, with numpy's casting rules on the way back
    out = c if (c.dtype == np.complex128 and c.flags.aligned and c.flags.writeable
                and not any(s % _ITEM for s in c.strides)) else np.array(c, np.complex128)
    m, n = c.shape
    k = ops[0][0].shape[1] if ops else 0
    rows, cols = _MR * -(-m // _MR), _NR * -(-n // _NR)  # padded to the register tile
    # at most rows·cols/(rows+cols) deep, so the packs never exceed one
    # plane pair; planes are reloaded exactly, so any depth gives the same bits
    kc = max(1, min(KC, k, rows * cols // max(1, rows + cols)))
    pairs = (len(ops) == 2) + (k > kc) if ops else 0
    plane, pack_a, pack_b = pairs * 2 * rows * cols, 2 * kc * rows, 2 * kc * _NR
    scratch = np.empty(plane + pack_a + pack_b if ops else 0)
    base = _address(scratch)
    args = [None, 0, 0, None, 0, 0] * 2  # an absent term is never read
    for i, (left, right) in enumerate(ops):
        args[6 * i : 6 * i + 6] = [_address(left), *_strides(left), _address(right), *_strides(right)]
    conj = bool(terms and terms[0][2])
    _kernel(m, n, k, kc, len(ops), *args, conj, alpha, int(beta), int(lower),
            _address(out), *_strides(out), base, base + 8 * plane, base + 8 * (plane + pack_a))
    if out is not c:
        np.copyto(c, out)


def acc_product(a, b, conj_left=False):
    """a @ b, a conjugated by its flag, bit-identical to
    ``kernels._acc_product``: ``tile_update``'s one-term, unit-alpha, beta-0
    case into a new Fortran-ordered array.  Call ``load()`` first."""
    a, b = _operand(a), _operand(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.complex128, order="F")
    tile_update([(a, b, conj_left)], 1.0, 0, out, False)
    return out


def _strides(x: np.ndarray):
    return (s // _ITEM for s in x.strides)


def _address(x: np.ndarray) -> int:
    # not x.ctypes.data: that object sits in a reference cycle, so every
    # call would leave garbage for the collector and move the build's peak
    return x.__array_interface__["data"][0]
