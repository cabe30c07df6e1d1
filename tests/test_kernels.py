import tracemalloc

import numpy as np
import pytest

from hsgen.kernels import (
    FlopLedger,
    FlopRecord,
    KernelKind,
    _acc_product,
    _tail,
    diag_scale,
    flops_of,
    gemm,
    hemm_left,
    her2k,
    herk,
    potrf_lower,
    trmm_left_conjtrans,
)
from hsgen.matcore import (
    DimensionError,
    Dims,
    InputError,
    hermitian_mirror,
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


def test_gemm_degenerate_scalars_leave_c_bitwise():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    c = random_complex(rng, 3, 3)
    before = c.tobytes()
    gemm(0, "N", a, "N", b, 1, c)
    assert c.tobytes() == before


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
# hemm


def test_hemm_identity():
    rng = np.random.default_rng(2)
    b = random_complex(rng, 3, 4)
    c = random_complex(rng, 3, 4)
    expected = oracles.hemm_loops(2.0, np.eye(3), b, 1, c)
    hemm_left(2.0, cmatrix(np.eye(3)), b, 1, c)
    np.testing.assert_array_equal(c, expected)


def test_hemm_hand_example():
    t = cmatrix([[2, 0], [1 - 1j, 3]])  # upper entry is ignored
    b = cmatrix([[1], [0]])
    c = zeros(2, 1)
    hemm_left(1, t, b, 0, c)
    np.testing.assert_array_equal(c, np.array([[2], [1 - 1j]]))


def test_hemm_matches_gemm_with_mirrored_operand_bitwise():
    rng = np.random.default_rng(3)
    t = random_complex(rng, 5, 5)
    b = random_complex(rng, 5, 3)
    c1 = random_complex(rng, 5, 3)
    c2 = c1.copy()
    hemm_left(-0.75, t, b, 1, c1)
    gemm(-0.75, "N", hermitian_mirror(t), "N", b, 1, c2)
    assert c1.tobytes() == c2.tobytes()


def test_hemm_dimension_errors():
    with pytest.raises(DimensionError):
        hemm_left(1, zeros(2, 3), zeros(2, 2), 0, zeros(2, 2))
    with pytest.raises(DimensionError):
        hemm_left(1, zeros(2, 2), zeros(3, 2), 0, zeros(3, 2))


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
    rng = np.random.default_rng(7)
    b = random_complex(rng, 3, 5)
    c1 = zeros(5, 5)
    c2 = zeros(5, 5)
    her2k(0.5, b, b, 0.0, c1)
    herk(1.0, b, 0.0, c2)
    assert c1.tobytes() == c2.tobytes()


def test_her2k_matches_gemm_sum_exactly():
    rng = np.random.default_rng(8)
    z = random_complex(rng, 3, 5)
    b = random_complex(rng, 3, 5)
    c = zeros(5, 5)
    her2k(1, z, b, 0, c)
    g1 = zeros(5, 5)
    gemm(1, "C", z, "N", b, 0, g1)
    g2 = zeros(5, 5)
    gemm(1, "C", b, "N", z, 0, g2)
    tl = np.tril_indices(5)
    np.testing.assert_array_equal(c[tl], (g1 + g2)[tl])


# ---------------------------------------------------------------------------
# trmm


def test_trmm_identity():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 3, 4)
    out = zeros(3, 4)
    assert trmm_left_conjtrans(cmatrix(np.eye(3)), a, out) is out
    np.testing.assert_array_equal(out, a)


def test_trmm_hand_example():
    c = cmatrix([[2, 0], [1, 3]])
    a = cmatrix([[1], [1]])
    out = trmm_left_conjtrans(c, a, random_complex(np.random.default_rng(3), 2, 1))
    np.testing.assert_array_equal(out, np.array([[3], [3]], dtype=complex))


def test_trmm_matches_gemm_bitwise():
    rng = np.random.default_rng(10)
    c_factor = cmatrix(np.tril(random_complex(rng, 6, 6)))
    a = random_complex(rng, 6, 4)
    out = trmm_left_conjtrans(c_factor, a, zeros(6, 4))
    expected = zeros(6, 4)
    gemm(1, "C", c_factor, "N", a, 0, expected)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_g", [300, 600])
def test_trmm_matches_the_conjugated_copy_bitwise(n_g):
    rng = np.random.default_rng(11)
    c_factor, a = random_complex(rng, 9, 9), random_complex(rng, 9, n_g)
    for x in (c_factor, a):  # signed zeros in both parts
        for part in (x.real, x.imag):
            part[rng.random(x.shape) < 0.2] = 0.0
            part[rng.random(x.shape) < 0.2] = -0.0
    out = trmm_left_conjtrans(c_factor, a, zeros(9, n_g))
    assert out.tobytes() == oracles.trmm_conj_copy(c_factor, a).tobytes()


def test_trmm_dimension_errors():
    with pytest.raises(DimensionError):
        trmm_left_conjtrans(zeros(2, 3), zeros(2, 2), zeros(3, 2))
    with pytest.raises(DimensionError):
        trmm_left_conjtrans(zeros(2, 2), zeros(3, 2), zeros(2, 2))
    with pytest.raises(DimensionError):
        trmm_left_conjtrans(zeros(2, 2), zeros(2, 3), zeros(2, 2))


# ---------------------------------------------------------------------------
# potrf


def test_potrf_identity():
    factor, info = potrf_lower(cmatrix(np.eye(3)))
    assert info == 0
    np.testing.assert_array_equal(factor, np.eye(3))


def test_potrf_scalar():
    factor, info = potrf_lower(cmatrix([[4.0]]))
    assert info == 0
    np.testing.assert_array_equal(factor, np.array([[2.0]], dtype=complex))


def test_potrf_indefinite_failure_index():
    # leading minors: 1 > 0, then 1 - 4 = -3 < 0
    t = cmatrix([[1, 0], [2, 1]])
    factor, info = potrf_lower(t)
    assert factor is None
    assert info == 2


def test_potrf_reconstruction():
    rng = np.random.default_rng(11)
    for n in (2, 5, 16, 64):
        t = random_hermitian(rng, n, rng.uniform(0.5, 2.0, n))
        factor, info = potrf_lower(t)
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
        _, info = potrf_lower(t)
        assert info == 0
        eigs[int(rng.integers(0, n))] = -rng.uniform(0.01, 0.5)
        t_bad = random_hermitian(rng, n, eigs)
        factor, info = potrf_lower(t_bad)
        assert factor is None
        assert 1 <= info <= n


def test_potrf_large_order():
    rng = np.random.default_rng(13)
    t = random_hermitian(rng, 256, rng.uniform(0.5, 2.0, 256))
    factor, info = potrf_lower(t)
    assert info == 0
    assert rel_frob_error(factor @ np.conj(factor).T, t) <= 1e-12


def test_potrf_errors():
    with pytest.raises(DimensionError):
        potrf_lower(zeros(2, 3))
    bad = cmatrix(np.eye(2))
    bad[1, 0] = np.nan
    with pytest.raises(InputError):
        potrf_lower(bad)


def test_potrf_reads_only_lower_triangle():
    rng = np.random.default_rng(14)
    t = random_hermitian(rng, 5, rng.uniform(0.5, 2.0, 5))
    junk = t.copy()
    junk[np.triu_indices(5, 1)] = 123.0 + 4.0j
    f1, _ = potrf_lower(t)
    f2, _ = potrf_lower(junk)
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
        got, info = potrf_lower(t)
        want, want_info = oracles.potrf_loops(t)
        assert info == want_info
        if want is None:
            assert got is None
            failures += 1
        else:
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
        cc = random_complex(rng, m, n)
        expected = oracles.hemm_loops(alpha, t, bb, beta, cc)
        hemm_left(alpha, t, bb, beta, cc)
        np.testing.assert_array_equal(cc, expected)

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

        cf = cmatrix(np.tril(random_complex(rng, m, m)))
        a3 = random_complex(rng, m, n)
        np.testing.assert_array_equal(
            trmm_left_conjtrans(cf, a3, zeros(m, n)), oracles.trmm_conjtrans_loops(cf, a3)
        )

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
    out = _acc_product(a, b)
    assert out.flags.f_contiguous
    assert out.tobytes() == oracles.acc_product_rank1(a, b).tobytes()


def _canonical_nans(x):
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
            out = _acc_product(x, y)
            expected = oracles.acc_product_rank1(x, y)
            assert np.isnan(out).any() and np.isinf(out).any() and np.isfinite(out).any()
            assert _canonical_nans(out).tobytes() == _canonical_nans(expected).tobytes()


def test_acc_product_peak_memory_stays_near_output_size():
    m, n, k = 128, 128, 784
    rng = np.random.default_rng(5)
    a = np.conj(random_complex(rng, k, m)).T
    b = random_complex(rng, k, n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _acc_product(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # copying whole a/b panels would add 4 * 8 * k * (m + n) bytes (3.2 MB)
    assert peak <= 3.1 * 16 * m * n


# ---------------------------------------------------------------------------
# output tail: one masked copy vs the tril_indices gather/scatter


@pytest.mark.parametrize("with_prod", [True, False])
@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("beta", [0, 1])
def test_tail_bitwise_matches_gather_scatter(beta, lower, with_prod):
    rng = np.random.default_rng(41)
    big = random_complex(rng, 12, 11)
    big[4, 3] = big[3, 6] = big[7, 2] = np.nan  # diagonal, upper, lower of the tile
    expected = big.copy(order="F")
    prod = random_complex(rng, 7, 7) if with_prod else None
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
