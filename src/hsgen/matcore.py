"""Complex dense matrix primitives shared by every other module.

Conventions: matrices are numpy ``complex128`` arrays in column-major
(Fortran) order; Hermitian matrices are produced lower-triangle-first and
mirrored once, in place, at the end of a build.  ``is_hermitian`` is the
package's one Hermitian predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class InputError(ValueError):
    """Operand values are invalid (wrong kind, non-finite, out of range)."""


class InvariantError(ValueError):
    """A data structure violates one of its declared invariants."""


def int_fields(obj, **least) -> None:
    """Store each named field of the frozen dataclass ``obj`` as an int;
    InputError unless its value is an integer no less than its bound."""
    for name, low in least.items():
        v = getattr(obj, name)
        try:
            n = int(v)
        except (OverflowError, TypeError, ValueError):  # inf, None, nan
            n = 0
        if n != v or n < low:
            raise InputError(f"{name} must be an integer >= {low}, got {v!r}")
        object.__setattr__(obj, name, n)


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: atom count, rows per coefficient block, basis size.

    ``n_l <= n_g`` is typical but never assumed.
    """

    n_atoms: int
    n_l: int
    n_g: int

    def __post_init__(self):
        int_fields(self, n_atoms=1, n_l=1, n_g=1)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.complex128, order="F")


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


#: Columns per panel of ``hermitian_mirror``: bounds the index arrays of
#: the diagonal block, the only fancy indexing left.
_MIRROR_PANEL = 256


def hermitian_mirror(m: np.ndarray) -> np.ndarray:
    """Make ``m`` the full Hermitian matrix of its lower triangle, in place;
    returns ``m``.

    The upper triangle is overwritten with the conjugate transpose of the
    strict lower triangle and diagonal imaginary parts are dropped; the
    lower triangle passes through bit-identically, which makes the
    operation idempotent.  The upper triangle is filled one column panel
    at a time from the panel's transposed rows, so the working set beyond
    ``m`` stays at one diagonal block.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"hermitian_mirror needs a square matrix, got {m.shape}")
    n = m.shape[0]
    for j0 in range(0, n, _MIRROR_PANEL):
        j1 = min(j0 + _MIRROR_PANEL, n)
        np.conj(m[j0:j1, :j0].T, out=m[:j0, j0:j1])
        blk = m[j0:j1, j0:j1]
        iu = np.triu_indices(j1 - j0, k=1)
        blk[iu] = np.conj(blk.T[iu])
    d = np.diag_indices(n)
    m[d] = m[d].real
    return m


def hermitian_defect(m: np.ndarray) -> float:
    """max of |M - M^H| entries and diagonal imaginary magnitudes; NaN if
    ``m`` holds a non-finite entry.  DimensionError unless ``m`` is square."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"hermitian_defect needs a square matrix, got {m.shape}")
    if m.size == 0:
        return 0.0
    off = float(np.abs(m - np.conj(m.T)).max())
    if not math.isfinite(off):  # a non-finite entry; inf - x is inf, not NaN
        return math.nan
    dia = float(np.abs(np.diagonal(m).imag).max())
    return max(off, dia)


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    """Whether the square ``m`` is Hermitian within ``tol`` relative to its
    size; never for a non-finite entry, whose defect is NaN."""
    return hermitian_defect(m) <= tol * (1.0 + frobenius(m))


def rel_frob_error(a: np.ndarray, b: np.ndarray) -> float:
    """frobenius(a - b) / (1 + frobenius(b))"""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return frobenius(a - b) / (1.0 + frobenius(b))


@dataclass
class HermitianResult:
    """Holder of one Hermitian output of a build, ``BuildOutput.h``/``.s``.

    It carries no check of its own (use ``is_hermitian``) and stays only
    because the benchmark reads the outputs through ``.matrix``."""

    matrix: np.ndarray
