"""Numpy assembly of H and S straight from their defining per-atom sums.

Each atom adds its terms to the full matrix as BLAS products (``@``) of
the whole blocks.  This module imports nothing from hsgen but the
instance type, and shares no code with the builder, its kernels or its
engines, which is what makes it a meaningful cross-check.  Each oracle
returns the full matrix as a plain Fortran-order complex128 array.
"""

from __future__ import annotations

import numpy as np

from .probgen import ProblemInstance


def s_reference(p: ProblemInstance) -> np.ndarray:
    """S = sum over atoms of A^H A + (U B)^H (U B), accumulated atom by atom.

    The norm weights scale a new array; the instance's B blocks are never
    touched.
    """
    s = np.zeros((p.dims.n_g, p.dims.n_g), dtype=np.complex128, order="F")
    for a, b, u in zip(p.a_blocks, p.b_blocks, p.u_norms):
        s += a.conj().T @ a
        ub = u[:, None] * b
        s += ub.conj().T @ ub
    return s


def h_reference(p: ProblemInstance) -> np.ndarray:
    """H from the four per-atom coupling terms AA, AB, BA, BB.

    The BA coupling block is formed on the fly as the conjugate transpose
    of the stored AB block.
    """
    h = np.zeros((p.dims.n_g, p.dims.n_g), dtype=np.complex128, order="F")
    for a, b, t_aa, t_ab, t_bb in zip(p.a_blocks, p.b_blocks, p.t_aa, p.t_ab, p.t_bb):
        h += a.conj().T @ (t_aa @ a + t_ab @ b)
        h += b.conj().T @ (t_ab.conj().T @ a + t_bb @ b)
    return h
