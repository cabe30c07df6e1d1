"""Brute-force assembly of H and S straight from their defining per-atom sums.

Everything here is plain Python loops over Python complex scalars, with no
stacking and no symmetry exploitation - slow on purpose.  This module
shares no kernel code with the optimized builder, which is what makes it a
meaningful cross-check.  Keep n_g at or below 512; cost grows as
n_atoms * n_l * n_g^2.  Each oracle returns the full matrix as a plain
complex128 array.
"""

from __future__ import annotations

import numpy as np

from .probgen import ProblemInstance


def _zero_rows(n_g: int) -> list:
    return [[0j] * n_g for _ in range(n_g)]


def s_reference(p: ProblemInstance) -> np.ndarray:
    """S = sum over atoms of A^H A + (U B)^H (U B), accumulated atom by atom.

    The norm weights are applied to a scratch copy; the instance's B blocks
    are never touched.
    """
    n_l, n_g = p.dims.n_l, p.dims.n_g
    s = _zero_rows(n_g)
    for a in range(p.dims.n_atoms):
        ab = p.a_blocks[a].tolist()
        bb = p.b_blocks[a].tolist()
        u = p.u_norms[a].tolist()
        for l in range(n_l):
            arow = ab[l]
            ubrow = [u[l] * z for z in bb[l]]
            for i in range(n_g):
                cai = arow[i].conjugate()
                cbi = ubrow[i].conjugate()
                si = s[i]
                for j in range(n_g):
                    si[j] += cai * arow[j] + cbi * ubrow[j]
    return np.asfortranarray(np.array(s, dtype=np.complex128))


def _mat_mul(t, x, n_l: int, n_g: int) -> list:
    """t (n_l x n_l) times x (n_l x n_g), rows of Python complex."""
    out = [[0j] * n_g for _ in range(n_l)]
    for r in range(n_l):
        trow = t[r]
        orow = out[r]
        for k in range(n_l):
            trk = trow[k]
            xrow = x[k]
            for j in range(n_g):
                orow[j] += trk * xrow[j]
    return out


def _acc_sandwich(h, left, w, n_l: int, n_g: int) -> None:
    """h += left^H w with explicit loops."""
    for l in range(n_l):
        lrow = left[l]
        wrow = w[l]
        for i in range(n_g):
            cli = lrow[i].conjugate()
            hi = h[i]
            for j in range(n_g):
                hi[j] += cli * wrow[j]


def h_reference(p: ProblemInstance) -> np.ndarray:
    """H from the four per-atom coupling terms AA, AB, BA, BB.

    The BA coupling block is formed on the fly as the conjugate transpose
    of the stored AB block.
    """
    n_l, n_g = p.dims.n_l, p.dims.n_g
    h = _zero_rows(n_g)
    for a in range(p.dims.n_atoms):
        ab = p.a_blocks[a].tolist()
        bb = p.b_blocks[a].tolist()
        taa = p.t_aa[a].tolist()
        tab = p.t_ab[a].tolist()
        tbb = p.t_bb[a].tolist()
        tba = [[tab[k][r].conjugate() for k in range(n_l)] for r in range(n_l)]
        _acc_sandwich(h, ab, _mat_mul(taa, ab, n_l, n_g), n_l, n_g)
        _acc_sandwich(h, ab, _mat_mul(tab, bb, n_l, n_g), n_l, n_g)
        _acc_sandwich(h, bb, _mat_mul(tba, ab, n_l, n_g), n_l, n_g)
        _acc_sandwich(h, bb, _mat_mul(tbb, bb, n_l, n_g), n_l, n_g)
    return np.asfortranarray(np.array(h, dtype=np.complex128))
