"""Independent triple-loop kernel implementations used as test oracles.

Everything works on Python complex scalars with ascending-k accumulation
and the kernels' scalar contract (alpha nonzero, beta 0 or 1; beta 0
never reads the output, exact unit scalars pass through).  No code is
shared with the package under test.
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
    left = s if alpha == 1 else alpha * s
    return left + cij if beta else left


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
            s = 0j  # one running sum: z^H*b, then b^H*z
            for kk in range(k):
                s = s + zv[kk][i].conjugate() * bv[kk][j]
            for kk in range(k):
                s = s + bv[kk][i].conjugate() * zv[kk][j]
            out[i, j] = _scale_add(alpha, s, beta, complex(out[i, j]))
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
    with ``acc_product_rank1`` for the engines' accumulation; the ``C``-op
    GEMM over ``tril(c)``, as the numpy engine's Loop 2 runs TRMM, must
    match it bit for bit."""
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


def canonical_nans(x):
    """Copy of x with every NaN part replaced by numpy's default NaN.

    IEEE 754 leaves the sign and payload of a NaN result unspecified, and
    numpy's own loops do not fix them: with numpy 2.4 on x86-64, adding
    -nan and +nan yields -nan in the SIMD body of a contiguous loop and +nan
    in its scalar tail, so NaN sign bits depend on an element's position,
    not on its arithmetic.
    """
    out = np.array(x, dtype=np.complex128)
    out.real[np.isnan(out.real)] = np.nan
    out.imag[np.isnan(out.imag)] = np.nan
    return out


def _cprod(u, v):
    u = np.asarray(u)
    v = np.asarray(v)
    out = np.empty(np.broadcast(u, v).shape, dtype=np.complex128)
    out.real = u.real * v.real - u.imag * v.imag
    out.imag = u.real * v.imag + u.imag * v.real
    return out


def tail_tril_indices(c, prod, beta, lower):
    """c <- prod + beta*c, beta 0 or 1, gathered and scattered through
    ``tril_indices`` when ``lower`` (then the diagonal is made real).  The
    masked copy in hsgen.kernels._tail must match this bit for bit,
    including the border of a tile that is a view."""
    sel = np.tril_indices(c.shape[0]) if lower else ...
    c[sel] = prod[sel] + c[sel] if beta else prod[sel]
    if lower:
        d = np.diag_indices(c.shape[0])
        c[d] = c[d].real


def update_loops(terms, conj_left, alpha, beta, c, lower):
    """One tile's update, c <- alpha*op(L)*R + beta*c: L and R stack the
    ``(left, right)`` terms along k, op conjugates L when ``conj_left`` is
    set, and the product comes from ascending-k complex rank-1 updates,
    scaled by the separated formula unless alpha is 1, then the
    ``tril_indices`` tail.  The engines' per-tile updates must match this
    bit for bit."""
    left = np.hstack([left for left, _ in terms])
    prod = acc_product_rank1(np.conj(left) if conj_left else left,
                             np.vstack([right for _, right in terms]))
    tail_tril_indices(c, prod if alpha == 1 else _cprod(alpha, prod), beta, lower)


def potrf_loops(t):
    """Left-looking Cholesky, one column at a time with a scalar loop over k.

    The right-looking plane update in hsgen.kernels._potrf, and the native
    engine's port of it, must match this bit for bit: factors, and the
    failure index k of ``(None, k)``.
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
    hsgen.kernels.hermitian_mirror must match it bit for bit."""
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
