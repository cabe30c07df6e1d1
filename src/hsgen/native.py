"""The native exact engine: the per-tile product of ``native.c``, compiled
on first use and called through ctypes.

It computes what ``kernels._acc_product`` computes with the same IEEE
operations per element, so the two engines give the same bits (NaN sign
and payload aside, which neither fixes).  The library is built with
``cc -O3 -march=native -ffp-contract=off -fPIC -shared``, never with
``-ffast-math``, into ``$XDG_CACHE_HOME/hsgen`` (or ``~/.cache/hsgen``)
under a name keyed by the SHA-256 of the source, the flags, ``cc
--version`` and this host's CPU flags, since ``-march=native`` ties the
code to the CPU.  It is written to a temporary file and renamed into
place, so concurrent first uses never load a partial file.  A missing or
failing compiler is an ``InputError`` that names it; there is no silent
fallback to the numpy engine.

ctypes releases the interpreter lock during the call, so the executor's
workers run tiles in parallel.  The output and both pack buffers are
numpy arrays allocated here, so tracemalloc sees all of the engine's
memory; the C code allocates nothing.
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

#: Inner-dimension block: a 256-row pack is 256 KiB, so at the 256 grid the
#: output and both packs (1.5 MiB) stay under the numpy engine's four
#: float64 planes (2 MiB).
KC = 64
_MR, _NR = 8, 4  # the register tile of native.c
_ITEM = 16  # bytes per complex128; native.c takes strides in elements

_lock = threading.Lock()
_kernel = None  # the loaded acc_product, once per process


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
        fn = ctypes.CDLL(str(path)).acc_product
    except OSError as exc:
        raise InputError(f"cannot load the native engine from {path}: {exc}; "
                         "pass --engine numpy to run without it") from exc
    idx, ptr = ctypes.c_ssize_t, ctypes.c_void_p
    fn.argtypes = [idx, idx, idx, idx, ptr, idx, idx, ptr, idx, idx, ctypes.c_int,
                   ptr, ptr, ptr]
    fn.restype = None
    return fn


def product():
    """The native per-tile product, building and loading it on first use."""
    global _kernel
    with _lock:
        if _kernel is None:
            _kernel = _load()
    return acc_product


def _operand(x) -> np.ndarray:
    """x as complex128 whose strides are whole elements (a copy otherwise)."""
    x = np.asarray(x, dtype=np.complex128)
    if not x.flags.aligned or any(s % _ITEM for s in x.strides):
        x = x.copy()
    return x


def acc_product(a, b, conj_left=False):
    """a @ b, a conjugated by its flag, bit-identical to
    ``kernels._acc_product``; returns a new Fortran-ordered array.  Call
    ``product()`` first, which loads the library."""
    a, b = _operand(a), _operand(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    (m, k), n = a.shape, b.shape[1]
    kc = max(1, min(KC, k))
    out = np.empty((m, n), dtype=np.complex128, order="F")
    pack_a = np.empty(2 * kc * _MR * -(-m // _MR))
    pack_b = np.empty(2 * kc * _NR * -(-n // _NR))
    (sa0, sa1), (sb0, sb1) = (s // _ITEM for s in a.strides), (s // _ITEM for s in b.strides)
    _kernel(m, n, k, kc, _address(a), sa0, sa1, _address(b), sb0, sb1, int(conj_left),
            _address(out), _address(pack_a), _address(pack_b))
    return out


def _address(x: np.ndarray) -> int:
    # not x.ctypes.data: that object sits in a reference cycle, so every
    # call would leave garbage for the collector and move the build's peak
    return x.__array_interface__["data"][0]
