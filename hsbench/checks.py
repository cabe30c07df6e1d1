"""Correctness checks the benchmark applies to hsgen's outputs.

Nothing here calls into hsgen: the reference matrices are recomputed with
numpy straight from the instance blocks, the flop count comes from the
paper's kernel formulas, and the ``.hsm`` files are parsed from their
documented 25-byte header.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

#: magic, version (u32), dtype tag (u8), rows (u64), cols (u64)
HSM_HEADER = struct.Struct("<4sIBQQ")
REL_TOL = 1e-9
PSD_TOL = 1e-12


def model_flops(n_atoms: int, n_l: int, n_g: int, n_nonhpd: int) -> int:
    """Flops of one build for the given dims and Cholesky split.

    GEMM 8mnk, HEMM 8n^2m, HERK 4kn^2, HER2K 8kn^2, TRMM 4n^2m,
    POTRF round(4n^3/3) and the row scaling 2nm, as in the paper's Table 5
    accounting.  A factorization that fails is routing, not work.
    """
    k = n_atoms * n_l
    n_hpd = n_atoms - n_nonhpd
    loop1 = n_atoms * (8 * n_l * n_g * n_l + 8 * n_l * n_l * n_g)
    loop2 = (n_hpd * (round(4 * n_l**3 / 3) + 4 * n_l * n_l * n_g)
             + n_nonhpd * 8 * n_l * n_l * n_g)
    unorm = 2 * k * n_g
    s1 = s2 = 4 * k * n_g * n_g
    h1 = 8 * k * n_g * n_g
    h2 = 8 * n_g * n_g * n_nonhpd * n_l
    h3 = 4 * n_hpd * n_l * n_g * n_g
    return loop1 + loop2 + unorm + s1 + s2 + h1 + h2 + h3


def reference_hs(inst):
    """(H, S) recomputed with numpy BLAS from the per-atom blocks.

    S = sum A^H A + (UB)^H (UB)
    H = sum A^H T_aa A + A^H T_ab B + B^H T_ab^H A + B^H T_bb B
    """
    n_g = inst.dims.n_g
    h = np.zeros((n_g, n_g), dtype=np.complex128)
    s = np.zeros((n_g, n_g), dtype=np.complex128)
    for a_blk, b_blk, t_aa, t_ab, t_bb, u in zip(
        inst.a_blocks, inst.b_blocks, inst.t_aa, inst.t_ab, inst.t_bb, inst.u_norms
    ):
        ah, bh = a_blk.conj().T, b_blk.conj().T
        ub = np.asarray(u)[:, None] * b_blk
        s += ah @ a_blk + ub.conj().T @ ub
        h += ah @ (t_aa @ a_blk + t_ab @ b_blk) + bh @ (t_ab.conj().T @ a_blk + t_bb @ b_blk)
    return h, s


def rel_frob(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def exactly_hermitian(m) -> bool:
    return bool(np.array_equal(m, m.conj().T) and not np.diagonal(m).imag.any())


def reference_failures(inst, out, n_nonhpd: int) -> list:
    """Every way one build's output disagrees with what it must be; empty if none."""
    d = inst.dims
    errors = []
    h_ref, s_ref = reference_hs(inst)
    for name, got, ref in (("H", out.h.matrix, h_ref), ("S", out.s.matrix, s_ref)):
        err = rel_frob(got, ref)
        if not err <= REL_TOL:
            errors.append(f"{name}: relative Frobenius error {err:.3e} > {REL_TOL:.0e}")
        if not exactly_hermitian(got):
            errors.append(f"{name}: not exactly Hermitian with a real diagonal")
    eig = np.linalg.eigvalsh(out.s.matrix)
    if not eig[0] >= -PSD_TOL * np.abs(eig).max():
        errors.append(f"S: smallest eigenvalue {eig[0]:.3e} below -{PSD_TOL:.0e}*|S|")
    split = (out.split.hpd, out.split.nonhpd)
    if split != (d.n_atoms - n_nonhpd, n_nonhpd):
        errors.append(f"split {split} != designed {(d.n_atoms - n_nonhpd, n_nonhpd)}")
    want = model_flops(d.n_atoms, d.n_l, d.n_g, n_nonhpd)
    if out.ledger.total_flops() != want:
        errors.append(f"ledger flops {out.ledger.total_flops()} != model {want}")
    return errors


def matrix_bytes(m) -> bytes:
    """Column-major little-endian complex128 payload, as HSM1 stores it."""
    return np.asarray(m, dtype="<c16").tobytes(order="F")


def read_hsm(path) -> tuple:
    """((rows, cols), payload bytes) of an HSM1 file, checked against its header."""
    data = Path(path).read_bytes()
    if len(data) < HSM_HEADER.size:
        raise ValueError(f"{path}: shorter than the 25-byte header")
    magic, version, dtype, rows, cols = HSM_HEADER.unpack_from(data)
    if (magic, version, dtype) != (b"HSM1", 1, 1):
        raise ValueError(f"{path}: header {(magic, version, dtype)} is not HSM1 v1 complex128")
    payload = data[HSM_HEADER.size:]
    if len(payload) != 16 * rows * cols:
        raise ValueError(f"{path}: payload {len(payload)} bytes for {rows}x{cols}")
    return (rows, cols), payload
