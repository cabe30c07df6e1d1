"""Complex dense matrix primitives shared by every other module.

Conventions: matrices are numpy ``complex128`` arrays in column-major
(Fortran) order; Hermitian matrices are produced lower-triangle-first and
mirrored once, in place, at the end of a build (``kernels.hermitian_mirror``,
which runs on an engine).  ``is_hermitian`` is the package's one Hermitian
predicate.
"""

from __future__ import annotations

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
    InputError unless its value is an integer no less than its bound (a
    bool is not one, though Python counts True as 1)."""
    for name, low in least.items():
        v = getattr(obj, name)
        try:
            n = int(v)
        except (OverflowError, TypeError, ValueError):  # inf, None, nan
            n = 0
        if isinstance(v, (bool, np.bool_)) or n != v or n < low:
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


def hermitian_defect(m: np.ndarray):
    """max of |M - M^H| entries and diagonal imaginary magnitudes; NaN if
    ``m`` holds a non-finite entry.  A stack of matrices along leading axes
    gives an array of their defects.  DimensionError unless the matrices
    are square."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"hermitian_defect needs square matrices, got {m.shape}")
    if m.size == 0:
        return np.zeros(m.shape[:-2])[()]
    off = np.abs(m - np.conj(np.swapaxes(m, -2, -1))).max(axis=(-2, -1))
    dia = np.abs(np.diagonal(m, axis1=-2, axis2=-1).imag).max(axis=-1)
    # a non-finite entry; inf - x is inf, not NaN
    return np.where(np.isfinite(off), np.maximum(off, dia), np.nan)[()]


def is_hermitian(m: np.ndarray, tol: float = 1e-12):
    """Whether the square ``m`` is Hermitian within ``tol`` relative to its
    size; never for a non-finite entry, whose defect is NaN.  A stack of
    matrices gives an array of verdicts."""
    defect = hermitian_defect(m)
    with np.errstate(invalid="ignore"):  # the norm of a non-finite m, whose defect is NaN
        return defect <= tol * (1.0 + np.linalg.norm(m, axis=(-2, -1)))


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
