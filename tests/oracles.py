"""Independent triple-loop kernel implementations used as test oracles.

Everything works on Python complex scalars with ascending-k accumulation
and BLAS scalar conventions (alpha == 0 skips the product, beta == 0 never
reads the output, exact unit scalars pass through).  No code is shared
with the package under test.
"""

import math

import numpy as np


def _rows(m):
    return np.asarray(m, dtype=np.complex128).tolist()


def _op(op, m):
    rows = _rows(m)
    if op == "N":
        return rows
    if op == "T":
        return [list(col) for col in zip(*rows)]
    return [[z.conjugate() for z in col] for col in zip(*rows)]


def _scale_add(alpha, s, beta, cij):
    if alpha == 0:
        left = None
    elif alpha == 1:
        left = s
    else:
        left = alpha * s
    if beta == 0:
        right = None
    elif beta == 1:
        right = cij
    else:
        right = beta * cij
    if left is None and right is None:
        return 0j
    if left is None:
        return right
    if right is None:
        return left
    return left + right


def gemm_loops(alpha, opa, a, opb, b, beta, c):
    av = _op(opa, a)
    bv = _op(opb, b)
    cv = _rows(c)
    m, k, n = len(av), len(bv), len(bv[0])
    out = [[0j] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            s = 0j
            for kk in range(k):
                s = s + av[i][kk] * bv[kk][j]
            out[i][j] = _scale_add(alpha, s, beta, cv[i][j])
    return np.array(out, dtype=np.complex128)


def mirror_loops(t):
    tv = _rows(t)
    n = len(tv)
    full = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                full[i][j] = tv[i][j]
            elif i == j:
                full[i][j] = complex(tv[i][j].real, 0.0)
            else:
                full[i][j] = tv[j][i].conjugate()
    return np.array(full, dtype=np.complex128)


def hemm_loops(alpha, t, b, beta, c):
    return gemm_loops(alpha, "N", mirror_loops(t), "N", b, beta, c)


def herk_loops(alpha, a, beta, c):
    av = _rows(a)
    out = np.array(_rows(c), dtype=np.complex128)
    k, n = len(av), len(av[0])
    for i in range(n):
        for j in range(i + 1):
            s = 0j
            for kk in range(k):
                s = s + av[kk][i].conjugate() * av[kk][j]
            out[i, j] = _scale_add(alpha, s, beta, complex(out[i, j]))
        out[i, i] = complex(out[i, i].real, 0.0)
    return out


def her2k_loops(alpha, z, b, beta, c):
    zv = _rows(z)
    bv = _rows(b)
    out = np.array(_rows(c), dtype=np.complex128)
    k, n = len(zv), len(zv[0])
    for i in range(n):
        for j in range(i + 1):
            if alpha == 0:
                pair = None
            else:
                s1 = 0j
                for kk in range(k):
                    s1 = s1 + zv[kk][i].conjugate() * bv[kk][j]
                s2 = 0j
                for kk in range(k):
                    s2 = s2 + bv[kk][i].conjugate() * zv[kk][j]
                left = s1 if alpha == 1 else alpha * s1
                ca = alpha.conjugate() if isinstance(alpha, complex) else alpha
                right = s2 if ca == 1 else ca * s2
                pair = left + right
            if pair is None:
                out[i, j] = _scale_add(0, 0j, beta, complex(out[i, j]))
            else:
                out[i, j] = _scale_add(1, pair, beta, complex(out[i, j]))
        out[i, i] = complex(out[i, i].real, 0.0)
    return out


def trmm_conjtrans_loops(c_factor, a):
    cv = _rows(c_factor)
    av = _rows(a)
    n, m = len(cv), len(av[0])
    ch = [[(cv[k][i].conjugate() if k >= i else 0j) for k in range(n)] for i in range(n)]
    out = [[0j] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0j
            for kk in range(n):
                s = s + ch[i][kk] * av[kk][j]
            out[i][j] = s
    return np.array(out, dtype=np.complex128)


def trmm_conj_copy(c_factor, a):
    """TRMM as a product with an explicit Fortran copy of ``conj(tril(c)).T``,
    the form ``trmm_left_conjtrans`` had before it ran on the GEMM engine,
    with ``acc_product_rank1`` for the engine's accumulation."""
    ch = np.conj(np.tril(c_factor)).T
    return acc_product_rank1(np.asfortranarray(ch), a)


def diag_scale_loops(u, b):
    uv = list(np.asarray(u, dtype=np.float64))
    bv = _rows(b)
    out = [
        [complex(uv[l] * z.real, uv[l] * z.imag) for z in bv[l]] for l in range(len(bv))
    ]
    return np.array(out, dtype=np.complex128)


def acc_product_rank1(a, b):
    """a @ b as ascending-k complex rank-1 updates into one complex accumulator.

    The split real/imaginary-plane engine in hsgen.kernels must match this
    bit for bit.
    """
    m, kk = a.shape
    n = b.shape[1]
    acc = np.zeros((m, n), dtype=np.complex128, order="F")
    for k in range(kk):
        u, v = a[:, k, None], b[None, k, :]
        prod = np.empty((m, n), dtype=np.complex128)
        prod.real = u.real * v.real - u.imag * v.imag
        prod.imag = u.real * v.imag + u.imag * v.real
        acc += prod
    return acc


def _cprod(u, v):
    u = np.asarray(u)
    v = np.asarray(v)
    out = np.empty(np.broadcast(u, v).shape, dtype=np.complex128)
    out.real = u.real * v.real - u.imag * v.imag
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def tail_tril_indices(c, prod, beta, lower):
    """c <- prod + beta*c gathered and scattered through ``tril_indices``
    when ``lower`` (then the diagonal is made real); ``prod`` None is a
    zero product.  The masked copy in hsgen.kernels._tail must match this
    bit for bit, including the border of a tile that is a view."""
    sel = np.tril_indices(c.shape[0]) if lower else ...
    if prod is None:
        if beta == 0:
            c[sel] = 0
        elif beta != 1:
            c[sel] = _cprod(beta, c[sel])
    else:
        pv = prod[sel]
        if beta == 0:
            c[sel] = pv
        elif beta == 1:
            c[sel] = pv + c[sel]
        else:
            c[sel] = pv + _cprod(beta, c[sel])
    if lower:
        d = np.diag_indices(c.shape[0])
        c[d] = c[d].real


def potrf_loops(t):
    """Left-looking Cholesky, one column at a time with a scalar loop over k.

    The right-looking plane update in hsgen.kernels.potrf_lower must match
    this bit for bit: factors, and ``(None, k)`` failure indices.
    """
    n = t.shape[0]
    factor = np.zeros((n, n), dtype=np.complex128, order="F")
    for j in range(n):
        d = float(t[j, j].real)
        for k in range(j):
            ljk = factor[j, k]
            d -= ljk.real * ljk.real + ljk.imag * ljk.imag
        if not d > 0.0:
            return None, j + 1
        ljj = math.sqrt(d)
        factor[j, j] = ljj
        if j + 1 < n:
            col = np.array(t[j + 1 :, j], dtype=np.complex128)
            for k in range(j):
                col -= _cprod(factor[j + 1 :, k], np.conj(factor[j, k]))
            factor[j + 1 :, j] = col / ljj
    return factor, 0


def mirror_triu_indices(m):
    """Full Hermitian matrix from m's lower triangle by one fancy-indexed
    assignment over all upper-triangle indices; the panel-wise
    hsgen.matcore.hermitian_mirror must match it bit for bit."""
    n = m.shape[0]
    out = np.array(m, dtype=np.complex128, order="F", copy=True)
    iu = np.triu_indices(n, k=1)
    out[iu] = np.conj(out.T[iu])
    d = np.diag_indices(n)
    out[d] = out[d].real
    return out


def cmatrix(values):
    """``values`` as a complex128 column-major array."""
    return np.asfortranarray(values, dtype=np.complex128)


def random_complex(rng, rows, cols, scale=1.0):
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.asfortranarray(m * scale)


def random_hermitian(rng, n, eigs):
    """Hermitian matrix with the given spectrum, exactly Hermitian."""
    g = random_complex(rng, n, n)
    q, _ = np.linalg.qr(g)
    m = (q * np.asarray(eigs)) @ np.conj(q).T
    return np.asfortranarray((m + np.conj(m.T)) / 2.0)
