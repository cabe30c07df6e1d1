"""Complex dense matrix primitives shared by every other module.

Conventions: matrices are numpy ``complex128`` arrays in column-major
(Fortran) order; Hermitian matrices are produced lower-triangle-first and
mirrored once at the end of a build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class InputError(ValueError):
    """Operand values are invalid (wrong kind, non-finite, out of range)."""


class InvariantError(ValueError):
    """A data structure violates one of its declared invariants."""


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: atom count, rows per coefficient block, basis size.

    ``n_l <= n_g`` is typical but never assumed.
    """

    n_atoms: int
    n_l: int
    n_g: int

    def __post_init__(self):
        for name in ("n_atoms", "n_l", "n_g"):
            v = getattr(self, name)
            if int(v) != v or int(v) < 1:
                raise InputError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))


class Fill(enum.Enum):
    LOWER = "lower"
    FULL = "full"


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.complex128, order="F")


def as_cmatrix(values) -> np.ndarray:
    """Coerce to a 2-D complex128 column-major array."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return np.asfortranarray(m)


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def stack(blocks) -> np.ndarray:
    """Vertically concatenate blocks sharing a column count (explicit copy)."""
    blocks = list(blocks)
    if not blocks:
        raise DimensionError("stack needs at least one block")
    cols = blocks[0].shape[1]
    rows = 0
    for i, b in enumerate(blocks):
        if b.ndim != 2 or b.shape[1] != cols:
            raise DimensionError(
                f"block {i} has shape {b.shape}, expected {cols} columns"
            )
        rows += b.shape[0]
    out = np.empty((rows, cols), dtype=np.complex128, order="F")
    r = 0
    for b in blocks:
        out[r : r + b.shape[0], :] = b
        r += b.shape[0]
    return out


def hermitian_mirror(m: np.ndarray) -> np.ndarray:
    """Full Hermitian matrix from the lower triangle of ``m``.

    The upper triangle is overwritten with the conjugate transpose of the
    strict lower triangle and diagonal imaginary parts are dropped; the
    lower triangle passes through bit-identically, which makes the
    operation idempotent.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"hermitian_mirror needs a square matrix, got {m.shape}")
    n = m.shape[0]
    out = np.array(m, dtype=np.complex128, order="F", copy=True)
    iu = np.triu_indices(n, k=1)
    out[iu] = np.conj(out.T[iu])
    d = np.diag_indices(n)
    out[d] = out[d].real
    return out


def hermitian_defect(m: np.ndarray) -> float:
    """max of |M - M^H| entries and diagonal imaginary magnitudes."""
    if m.size == 0:
        return 0.0
    off = float(np.abs(m - np.conj(m.T)).max())
    dia = float(np.abs(np.diagonal(m).imag).max())
    return max(off, dia)


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    return hermitian_defect(m) <= tol * (1.0 + frobenius(m))


def rel_frob_error(a: np.ndarray, b: np.ndarray) -> float:
    """frobenius(a - b) / (1 + frobenius(b))"""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return frobenius(a - b) / (1.0 + frobenius(b))


@dataclass
class HermitianResult:
    """Square complex matrix plus the triangle-storage contract it honors.

    ``Fill.LOWER`` means only the lower triangle (with a real diagonal)
    carries data; ``Fill.FULL`` promises hermiticity of the whole matrix.
    """

    matrix: np.ndarray
    fill: Fill

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def mirrored(self) -> "HermitianResult":
        if self.fill is Fill.FULL:
            return self
        return HermitianResult(hermitian_mirror(self.matrix), Fill.FULL)

    def check(self, tol: float = 1e-12) -> None:
        """Raise InvariantError unless the storage contract holds."""
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvariantError(f"result matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise InvariantError("result matrix contains non-finite entries")
        scale = tol * (1.0 + frobenius(m))
        if float(np.abs(np.diagonal(m).imag).max(initial=0.0)) > scale:
            raise InvariantError("diagonal imaginary parts exceed tolerance")
        if self.fill is Fill.FULL:
            off = float(np.abs(m - np.conj(m.T)).max(initial=0.0))
            if off > scale:
                raise InvariantError("matrix is not Hermitian within tolerance")

