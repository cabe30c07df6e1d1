import inspect
import tracemalloc

import numpy as np
import pytest

from hsgen.kernels import (
    ENGINES,
    FlopLedger,
    FlopRecord,
    KernelKind,
    _acc_product,
    _engine,
    _tail,
    diag_scale,
    flops_of,
    gemm,
    her2k,
    herk,
    hermitian_mirror,
    loop1,
    loop2,
    potrf_route,
)
from hsgen.matcore import (
    DimensionError,
    Dims,
    InputError,
    rel_frob_error,
    zeros,
)
from hsgen.probgen import ProblemSpec, generate

import oracles
from oracles import cmatrix, random_complex, random_hermitian

# ---------------------------------------------------------------------------
# gemm


def test_gemm_identity():
    c = zeros(2, 2)
    gemm(1, "N", cmatrix(np.eye(2)), "N", cmatrix([[1, 2], [3, 4]]), 0, c)
    np.testing.assert_array_equal(c, np.array([[1, 2], [3, 4]], dtype=complex))


def test_gemm_integer_matches_triple_loop_exactly():
    rng = np.random.default_rng(1)
    a = cmatrix(rng.integers(-5, 6, (3, 2)) + 1j * rng.integers(-5, 6, (3, 2)))
    b = cmatrix(rng.integers(-5, 6, (2, 4)) + 1j * rng.integers(-5, 6, (2, 4)))
    c = zeros(3, 4)
    gemm(1, "N", a, "N", b, 0, c)
    np.testing.assert_array_equal(c, oracles.gemm_loops(1, "N", a, "N", b, 0, zeros(3, 4)))


@pytest.mark.parametrize("opa,opb", [("N", "N"), ("C", "N")])
def test_gemm_ops_match_loops(opa, opb):
    rng = np.random.default_rng(hash((opa, opb)) % 2**32)
    m, n, k = 5, 4, 6
    a = random_complex(rng, *( (m, k) if opa == "N" else (k, m) ))
    b = random_complex(rng, *( (k, n) if opb == "N" else (n, k) ))
    c = random_complex(rng, m, n)
    alpha, beta = -0.75, 1
    expected = oracles.gemm_loops(alpha, opa, a, opb, b, beta, c)
    gemm(alpha, opa, a, opb, b, beta, c)
    np.testing.assert_array_equal(c, expected)


def test_gemm_dimension_errors_name_operand():
    a = zeros(2, 3)
    b = zeros(4, 2)
    with pytest.raises(DimensionError, match="op\\(a\\)"):
        gemm(1, "N", a, "N", b, 0, zeros(2, 2))
    with pytest.raises(DimensionError, match="c has shape"):
        gemm(1, "N", a, "N", zeros(3, 2), 0, zeros(5, 5))
    with pytest.raises(InputError):
        gemm(1, "X", a, "N", b, 0, zeros(2, 2))


# ---------------------------------------------------------------------------
# hemm: Loop 1's second product and Loop 2's rows for an atom routed to it


def _hemm(t, b, engine=ENGINES[0]):
    """herm(t) b from Loop 2's X slot, the one atom routed to HEMM."""
    x = np.full(b.shape, complex(np.nan, np.nan), order="F")  # beta 0 never reads x
    loop2(np.ones(1), t[None], b[None], zeros(*b.shape), x, engine)
    return x


def test_hemm_identity():
    # Loop 1 adds 1/2 herm(T_bb) B onto its GEMM's rows
    rng = np.random.default_rng(2)
    t_ab, a, b = random_complex(rng, 3, 3), random_complex(rng, 3, 4), random_complex(rng, 3, 4)
    c = oracles.gemm_loops(1, "C", t_ab, "N", a, 0, zeros(3, 4))
    expected = oracles.hemm_loops(0.5, np.eye(3), b, 1, c)
    z = zeros(3, 4)
    loop1(t_ab[None], a[None], cmatrix(np.eye(3))[None], b[None], z)
    np.testing.assert_array_equal(z, expected)


def test_hemm_hand_example():
    t = cmatrix([[2, 0], [1 - 1j, 3]])  # upper entry is ignored
    b = cmatrix([[1], [0]])
    np.testing.assert_array_equal(_hemm(t, b), np.array([[2], [1 - 1j]]))


def test_hemm_matches_gemm_with_mirrored_operand_bitwise():
    rng = np.random.default_rng(3)
    t_ab, t = random_complex(rng, 5, 5), random_complex(rng, 5, 5)
    a, b = random_complex(rng, 5, 3), random_complex(rng, 5, 3)
    expected = zeros(5, 3)
    gemm(1, "C", t_ab, "N", a, 0, expected)
    gemm(0.5, "N", hermitian_mirror(t.copy(order="F")), "N", b, 1, expected)
    for engine in ENGINES:
        z = zeros(5, 3)
        loop1(t_ab[None], a[None], t[None], b[None], z, engine)
        assert z.tobytes() == expected.tobytes()


def test_hemm_dimension_errors():
    with pytest.raises(DimensionError):
        loop2(np.ones(1), zeros(2, 3)[None], zeros(2, 2)[None], zeros(2, 2), zeros(2, 2))
    with pytest.raises(DimensionError):
        loop2(np.ones(1), zeros(2, 2)[None], zeros(3, 2)[None], zeros(3, 2), zeros(3, 2))


# ---------------------------------------------------------------------------
# herk


def test_herk_zero_update_zeroes_diagonal_imag():
    rng = np.random.default_rng(4)
    c = random_complex(rng, 4, 4)
    want = c.copy()
    herk(1.0, zeros(3, 4), 1.0, c)
    d = np.diag_indices(4)
    want[d] = want[d].real
    np.testing.assert_array_equal(c, want)


def test_herk_scalar():
    c = zeros(1, 1)
    herk(1.0, cmatrix([[1 + 1j]]), 0.0, c)
    np.testing.assert_array_equal(c, np.array([[2.0]], dtype=complex))


def test_herk_matches_gemm_lower_triangle_bitwise():
    rng = np.random.default_rng(5)
    a = random_complex(rng, 4, 6)
    c1 = zeros(6, 6)
    herk(1.0, a, 0.0, c1)
    c2 = zeros(6, 6)
    gemm(1, "C", a, "N", a, 0, c2)
    tl = np.tril_indices(6)
    assert c1[tl].tobytes() == c2[tl].tobytes()


def test_herk_rejects_complex_scalars():
    with pytest.raises(InputError):
        herk(1 + 1j, zeros(2, 2), 0.0, zeros(2, 2))


# ---------------------------------------------------------------------------
# her2k


def test_her2k_zero_operand_scales_lower():
    rng = np.random.default_rng(6)
    c = random_complex(rng, 4, 4)
    b = random_complex(rng, 2, 4)
    expected = oracles.her2k_loops(0.5, zeros(2, 4), b, 1, c)
    her2k(0.5, zeros(2, 4), b, 1, c)
    d = np.diag_indices(4)
    tl = np.tril_indices(4)
    np.testing.assert_array_equal(c[tl], expected[tl])
    assert np.all(c[d].imag == 0.0)


def test_her2k_symmetry_collapse_equals_herk():
    # HER2K's product is one sum over [b; b]^H [b; b], HERK's over the
    # stacked operand: the same operations in the same order
    rng = np.random.default_rng(7)
    b = random_complex(rng, 3, 5)
    for engine in ENGINES:
        c1 = zeros(5, 5)
        c2 = zeros(5, 5)
        her2k(1, b, b, 0, c1, engine)
        herk(1, np.vstack([b, b]), 0, c2, engine)
        assert c1.tobytes() == c2.tobytes()


def test_her2k_matches_gemm_sum_exactly():
    # z^H*b + b^H*z is the one product [z; b]^H [b; z]
    rng = np.random.default_rng(8)
    z = random_complex(rng, 3, 5)
    b = random_complex(rng, 3, 5)
    tl = np.tril_indices(5)
    for engine in ENGINES:
        c = zeros(5, 5)
        her2k(1, z, b, 0, c, engine)
        g = zeros(5, 5)
        gemm(1, "C", np.vstack([z, b]), "N", np.vstack([b, z]), 0, g, engine)
        np.fill_diagonal(g.imag, 0)  # HER2K's tail makes the diagonal real
        assert c[tl].tobytes() == g[tl].tobytes()


# ---------------------------------------------------------------------------
# trmm: Loop 2's rows for an atom routed to it


def _trmm(t, a, engine=ENGINES[0]):
    """C^H a from Loop 2's Y slot, C the factor of t, the one atom routed
    to TRMM."""
    y = np.full(a.shape, complex(np.nan, np.nan), order="F")  # beta 0 never reads y
    loop2(np.zeros(1), t[None], a[None], y, zeros(*a.shape), engine)
    return y


def test_trmm_identity():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 3, 4)
    np.testing.assert_array_equal(_trmm(cmatrix(np.eye(3)), a), a)


def test_trmm_hand_example():
    t = cmatrix([[4, 0], [2, 10]])  # the factor is [[2, 0], [1, 3]]
    a = cmatrix([[1], [1]])
    np.testing.assert_array_equal(_trmm(t, a), np.array([[3], [3]], dtype=complex))


def test_trmm_matches_gemm_bitwise():
    rng = np.random.default_rng(10)
    t = random_hermitian(rng, 6, rng.uniform(0.5, 2.0, 6))
    a = random_complex(rng, 6, 4)
    c_factor, info = _factor(t)
    assert info == 0
    expected = zeros(6, 4)
    gemm(1, "C", c_factor, "N", a, 0, expected)
    assert _trmm(t, a).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_g", [300, 600])
def test_trmm_matches_the_conjugated_copy_bitwise(n_g):
    # the numpy engine's TRMM, the C-op GEMM over a factor with a zero
    # upper triangle, on either engine
    rng = np.random.default_rng(11)
    c_factor, a = random_complex(rng, 9, 9), random_complex(rng, 9, n_g)
    for x in (c_factor, a):  # signed zeros in both parts
        for part in (x.real, x.imag):
            part[rng.random(x.shape) < 0.2] = 0.0
            part[rng.random(x.shape) < 0.2] = -0.0
    for engine in ENGINES:
        out = gemm(1, "C", np.tril(c_factor), "N", a, 0, zeros(9, n_g), engine)
        assert out.tobytes() == oracles.trmm_conj_copy(c_factor, a).tobytes()


def test_trmm_dimension_errors():
    with pytest.raises(DimensionError):
        loop2(np.zeros(1), zeros(2, 3)[None], zeros(2, 2)[None], zeros(3, 2), zeros(3, 2))
    with pytest.raises(DimensionError):
        loop2(np.zeros(1), zeros(2, 2)[None], zeros(3, 2)[None], zeros(2, 2), zeros(2, 2))
    with pytest.raises(DimensionError):
        loop2(np.zeros(1), zeros(2, 2)[None], zeros(2, 3)[None], zeros(2, 2), zeros(2, 3))


# ---------------------------------------------------------------------------
# potrf: one block of an engine's potrf_atoms


def _factor(t, engine=ENGINES[0]):
    """``(factor, info)`` of t's lower triangle from one block of the
    engine's ``potrf_atoms``; the factor is partial when info is not 0."""
    factor = zeros(*t.shape)
    (info,), _ = _engine(engine).potrf_atoms(t[None], factor)
    return factor, int(info)


def test_potrf_identity():
    factor, info = _factor(cmatrix(np.eye(3)))
    assert info == 0
    np.testing.assert_array_equal(factor, np.eye(3))


def test_potrf_scalar():
    factor, info = _factor(cmatrix([[4.0]]))
    assert info == 0
    np.testing.assert_array_equal(factor, np.array([[2.0]], dtype=complex))


def test_potrf_indefinite_failure_index():
    # leading minors: 1 > 0, then 1 - 4 = -3 < 0
    t = cmatrix([[1, 0], [2, 1]])
    _, info = _factor(t)
    assert info == 2


def test_potrf_reconstruction():
    rng = np.random.default_rng(11)
    for n in (2, 5, 16, 64):
        t = random_hermitian(rng, n, rng.uniform(0.5, 2.0, n))
        factor, info = _factor(t)
        assert info == 0
        rec = factor @ np.conj(factor).T
        assert rel_frob_error(rec, t) <= 1e-12
        assert np.allclose(np.triu(factor, 1), 0)


def test_potrf_succeeds_hpd_fails_indefinite_property():
    rng = np.random.default_rng(12)
    for trial in range(100):
        n = int(rng.integers(1, 33))
        eigs = rng.uniform(0.5, 3.0, n)
        t = random_hermitian(rng, n, eigs)
        _, info = _factor(t)
        assert info == 0
        eigs[int(rng.integers(0, n))] = -rng.uniform(0.01, 0.5)
        t_bad = random_hermitian(rng, n, eigs)
        _, info = _factor(t_bad)
        assert 1 <= info <= n


def test_potrf_large_order():
    rng = np.random.default_rng(13)
    t = random_hermitian(rng, 256, rng.uniform(0.5, 2.0, 256))
    factor, info = _factor(t)
    assert info == 0
    assert rel_frob_error(factor @ np.conj(factor).T, t) <= 1e-12


def test_potrf_errors():
    with pytest.raises(DimensionError):
        potrf_route(zeros(2, 3)[None])


def test_potrf_reads_only_lower_triangle():
    rng = np.random.default_rng(14)
    t = random_hermitian(rng, 5, rng.uniform(0.5, 2.0, 5))
    junk = t.copy()
    junk[np.triu_indices(5, 1)] = 123.0 + 4.0j
    for engine in ENGINES:
        f1, _ = _factor(t, engine)
        f2, _ = _factor(junk, engine)
        assert f1.tobytes() == f2.tobytes()


def _potrf_bitwise_cases():
    for n_l, seeds in ((49, (1, 2, 3)), (121, (4, 5))):
        for seed in seeds:
            spec = ProblemSpec(Dims(4, n_l, 1), seed=seed, nonhpd_fraction=0.25)
            yield from generate(spec).t_aa
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 33, 64, 128):
        eigs = rng.uniform(0.5, 2.0, n)
        yield random_hermitian(rng, n, eigs)
        eigs[int(rng.integers(0, n))] = -rng.uniform(0.01, 0.5)
        yield random_hermitian(rng, n, eigs)
    # exact-zero couplings, with negative zeros among them
    diag = zeros(6, 6)
    diag[np.diag_indices(6)] = rng.uniform(0.5, 2.0, 6)
    diag[np.tril_indices(6, -1)] = complex(-0.0, -0.0)
    yield diag
    block = zeros(12, 12)
    block[:5, :5] = random_hermitian(rng, 5, rng.uniform(0.5, 2.0, 5))
    block[5:, 5:] = random_hermitian(rng, 7, rng.uniform(0.5, 2.0, 7))
    block[5:, :5] = complex(0.0, -0.0)
    yield block
    bad = block.copy()
    bad[5:, 5:] = random_hermitian(rng, 7, [1.0, 2.0, -0.3, 1.5, 0.7, 1.1, 0.9])
    yield bad


def test_potrf_matches_scalar_loop_bitwise():
    cases = list(_potrf_bitwise_cases())
    failures = 0
    for t in cases:
        want, want_info = oracles.potrf_loops(t)
        failures += want is None
        for engine in ENGINES:
            got, info = _factor(t, engine)
            assert info == want_info
            if want is not None:
                assert got.tobytes() == want.tobytes()
    assert 0 < failures < len(cases)


# ---------------------------------------------------------------------------
# diag_scale


def test_diag_scale_ones_noop():
    rng = np.random.default_rng(15)
    b = random_complex(rng, 3, 4)
    before = b.tobytes()
    diag_scale(np.ones(3), b)
    assert b.tobytes() == before


def test_diag_scale_scalar_row():
    b = cmatrix([[1 + 1j, 3]])
    diag_scale(np.array([2.0]), b)
    np.testing.assert_array_equal(b, np.array([[2 + 2j, 6]], dtype=complex))


def test_diag_scale_matches_gemm_with_diagonal():
    rng = np.random.default_rng(16)
    u = rng.uniform(0.1, 2.0, 4)
    b = random_complex(rng, 4, 6)
    expected = zeros(4, 6)
    gemm(1, "N", cmatrix(np.diag(u)), "N", b, 0, expected)
    diag_scale(u, b)
    np.testing.assert_array_equal(b, expected)


def test_diag_scale_errors():
    with pytest.raises(DimensionError):
        diag_scale(np.ones(2), zeros(3, 2))
    with pytest.raises(InputError):
        diag_scale(np.array([1.0, -0.5, 1.0]), zeros(3, 2))
    with pytest.raises(InputError):
        diag_scale(np.array([1.0, np.nan]), zeros(2, 2))


# ---------------------------------------------------------------------------
# oracle equivalence property: every kernel, random sizes up to 16


def test_kernels_match_triple_loops_exactly():
    rng = np.random.default_rng(17)
    for trial in range(25):
        m, n, k = (int(x) for x in rng.integers(1, 17, 3))
        alpha = float(rng.standard_normal())
        beta = int(rng.integers(2))

        a = random_complex(rng, m, k)
        b = random_complex(rng, k, n)
        c = random_complex(rng, m, n)
        expected = oracles.gemm_loops(alpha, "N", a, "N", b, beta, c)
        gemm(alpha, "N", a, "N", b, beta, c)
        np.testing.assert_array_equal(c, expected)

        t = random_complex(rng, m, m)
        bb = random_complex(rng, m, n)
        np.testing.assert_array_equal(_hemm(t, bb), oracles.hemm_loops(1, t, bb, 0, zeros(m, n)))

        ah = random_complex(rng, k, n)
        ch = random_complex(rng, n, n)
        expected = oracles.herk_loops(alpha, ah, beta, ch.copy())
        herk(alpha, ah, beta, ch)
        np.testing.assert_array_equal(ch, expected)

        z2 = random_complex(rng, k, n)
        b2 = random_complex(rng, k, n)
        c2 = random_complex(rng, n, n)
        expected = oracles.her2k_loops(alpha, z2, b2, beta, c2.copy())
        her2k(alpha, z2, b2, beta, c2)
        np.testing.assert_array_equal(c2, expected)

        t3 = random_hermitian(rng, m, rng.uniform(0.5, 2.0, m))
        a3 = random_complex(rng, m, n)
        cf, _ = _factor(t3)
        np.testing.assert_array_equal(_trmm(t3, a3), oracles.trmm_conjtrans_loops(cf, a3))

        u = rng.uniform(0.0, 2.0, m)
        b3 = random_complex(rng, m, n)
        expected = oracles.diag_scale_loops(u, b3)
        diag_scale(u, b3)
        np.testing.assert_array_equal(b3, expected)


# ---------------------------------------------------------------------------
# accumulation engine: split real/imaginary planes vs the complex rank-1 loop


@pytest.mark.parametrize("m,n,k", [(256, 256, 64), (128, 128, 200), (512, 512, 8)])
def test_acc_product_bitwise_at_executor_tile_shapes(m, n, k):
    rng = np.random.default_rng(m + n + k)
    z = random_complex(rng, k, m)
    b = random_complex(rng, k, n)
    a = np.conj(z).T  # the executor passes the conj-transposed view
    out = _acc_product([(a, b)], False)
    assert out.flags.f_contiguous
    assert out.tobytes() == oracles.acc_product_rank1(a, b).tobytes()


def _complex_from_parts(re, im):
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im  # re + 1j*im would turn an infinite im into a NaN real part
    return z


def test_acc_product_bitwise_with_signed_zeros_inf_nan():
    rng = np.random.default_rng(23)
    values = np.array([0.0, -0.0, 1.5, -2.0, 0.25, np.inf, -np.inf, np.nan])
    weights = np.array([0.25, 0.25, 0.15, 0.15, 0.17, 0.01, 0.01, 0.01])

    def draw(shape):
        return _complex_from_parts(rng.choice(values, shape, p=weights),
                                   rng.choice(values, shape, p=weights))

    a, b = draw((40, 5)), draw((5, 30))
    with np.errstate(invalid="ignore"):
        for x, y in [(a, b), (np.asfortranarray(a), b[:, ::-1])]:
            expected = oracles.acc_product_rank1(x, y)
            for engine in ENGINES:
                out = np.empty(expected.shape, dtype=np.complex128)
                _engine(engine).tile_update([(x, y)], False, 1.0, 0, out, False)
                assert np.isnan(out).any() and np.isinf(out).any() and np.isfinite(out).any()
                canonical = oracles.canonical_nans
                assert canonical(out).tobytes() == canonical(expected).tobytes()


def test_acc_product_peak_memory_stays_near_output_size():
    m, n, k = 128, 128, 784
    rng = np.random.default_rng(5)
    a = np.conj(random_complex(rng, k, m)).T
    b = random_complex(rng, k, n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _acc_product([(a, b)], False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # copying whole a/b panels would add 4 * 8 * k * (m + n) bytes (3.2 MB)
    assert peak <= 3.1 * 16 * m * n


# ---------------------------------------------------------------------------
# output tail: one masked copy vs the tril_indices gather/scatter


@pytest.mark.parametrize("prod_fortran", [True, False])
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("beta", [0, 1])
def test_tail_bitwise_matches_gather_scatter(beta, lower, prod_fortran):
    # the tail gets a Fortran-ordered product from _acc_product and a
    # C-ordered one once _cprod has scaled it
    rng = np.random.default_rng(41)
    big = random_complex(rng, 12, 11)
    big[4, 3] = big[3, 6] = big[7, 2] = np.nan  # diagonal, upper, lower of the tile
    expected = big.copy(order="F")
    prod = random_complex(rng, 7, 7)
    prod = prod if prod_fortran else np.ascontiguousarray(prod)
    tile = (slice(2, 9), slice(1, 8))  # a view with a border on every side
    _tail(big[tile], prod, beta, lower)
    oracles.tail_tril_indices(expected[tile], prod, beta, lower)
    assert big.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# flop model


def test_flops_of_frozen_values():
    assert flops_of(KernelKind.GEMM, (3, 4, 3)) == 288
    # 8 * 512 * 49 * 9273^2, exact integer arithmetic
    assert flops_of(KernelKind.HER2K, (9273, 512 * 49)) == 17_258_241_724_416
    assert flops_of(KernelKind.HERK, (9273, 512 * 49)) == 8_629_120_862_208
    assert flops_of(KernelKind.DIAG_SCALE, (1, 1)) == 2
    assert flops_of(KernelKind.POTRF, (49,)) == 156_865
    assert flops_of(KernelKind.POTRF, (121,)) == 2_362_081
    assert flops_of(KernelKind.TRMM, (49, 9273)) == 4 * 49 * 49 * 9273
    assert flops_of(KernelKind.HEMM, (49, 9273)) == 8 * 49 * 49 * 9273


def test_flops_of_is_pure_and_validates():
    assert flops_of(KernelKind.GEMM, (2, 3, 4)) == flops_of(KernelKind.GEMM, (2, 3, 4))
    with pytest.raises(InputError):
        flops_of("gemm", (2, 3, 4))
    with pytest.raises(InputError):
        flops_of(KernelKind.GEMM, (2, 3))
    with pytest.raises(InputError):
        flops_of(KernelKind.POTRF, (-1,))


def test_ledger_totals_and_record_validation():
    led = FlopLedger()
    led.add(KernelKind.GEMM, (2, 3, 4), 0.5, "Loop 1")
    led.add(KernelKind.HERK, (4, 6), 0.25, "S1")
    assert [r.flops for r in led] == [8 * 2 * 3 * 4, 4 * 6 * 4 * 4]
    assert led.total_flops() == sum(r.flops for r in led.records)
    assert sum(r.seconds for r in led) == pytest.approx(0.75)
    with pytest.raises(InputError):
        led.add(KernelKind.GEMM, (2, 3, 4), 0.1, "nope")
    with pytest.raises(InputError):
        FlopRecord(KernelKind.GEMM, (2, 3), 0.0, "Loop 1")
    with pytest.raises(InputError):
        FlopRecord(KernelKind.GEMM, (2, 3, 4), -1.0, "Loop 1")


# ---------------------------------------------------------------------------
# the engines: one interface, and a mirror that checks before it writes

_ENTRY_POINTS = ("tile_update", "potrf_atoms", "loop1_atoms", "loop2_atoms", "mirror_columns")


def test_the_engines_have_one_interface():
    native, numpy = _engine("native"), _engine("numpy")
    assert set(vars(numpy)) == set(_ENTRY_POINTS)
    for name in _ENTRY_POINTS:
        params = [list(inspect.signature(getattr(e, name)).parameters) for e in (native, numpy)]
        assert params[0] == params[1], name


def _unmirrorable(kind):
    """A matrix the mirror must refuse, and the buffer it lives in; every
    one has a lower triangle to copy and a zero upper one, so a write
    shows."""
    low = np.tril(np.arange(1, 10).reshape(3, 3) * (1 + 2j))
    if kind == "float64":
        m = low.real.copy()
    elif kind == "int64":
        m = low.real.astype(np.int64)
    elif kind == "complex64":
        m = low.astype(np.complex64)
    elif kind == "read-only-complex128":
        m = low.copy()
        m.flags.writeable = False
    elif kind == "24-byte-stride":
        buf = np.zeros(14, dtype=np.complex128)
        m = np.lib.stride_tricks.as_strided(buf, (3, 3), (24, 72))
        m[...] = low
        return m, buf
    else:
        m = np.concatenate([low, low[:1]])  # 4 x 3
    return m, m


@pytest.mark.parametrize("kind, error", [
    ("float64", InputError), ("int64", InputError), ("complex64", InputError),
    ("read-only-complex128", InputError), ("24-byte-stride", InputError),
    ("not-square", DimensionError),
])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_rejected_mirror_writes_nothing(engine, kind, error):
    # the refused matrix comes after a good one: neither may be written
    good = random_complex(np.random.default_rng(12), 4, 4)
    bad, buf = _unmirrorable(kind)
    before = good.tobytes(), buf.tobytes()
    with pytest.raises(error):
        hermitian_mirror(good, bad, engine=engine)
    assert (good.tobytes(), buf.tobytes()) == before


@pytest.mark.parametrize("engine", ENGINES)
def test_the_mirror_returns_its_first_matrix_and_fills_them_all(engine):
    rng = np.random.default_rng(13)
    m, more = random_complex(rng, 70, 70), random_complex(rng, 300, 300)
    expected = oracles.mirror_triu_indices(m).tobytes(), oracles.mirror_triu_indices(more).tobytes()
    assert hermitian_mirror(m, more, workers=2, engine=engine) is m
    assert (m.tobytes(), more.tobytes()) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_the_mirror_peak_stays_near_the_matrix_size(engine):
    m = random_complex(np.random.default_rng(4), 1024, 1024)
    _engine(engine)  # the native library is loaded outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        hermitian_mirror(m, engine=engine)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # full-size upper-triangle index arrays and gathers peaked at 2.5x
    assert peak <= 1.5 * m.nbytes
