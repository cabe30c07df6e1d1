import tracemalloc

import numpy as np
import pytest

from hsgen.kernels import hermitian_mirror
from hsgen.matcore import (
    DimensionError,
    Dims,
    InputError,
    hermitian_defect,
    is_hermitian,
    rel_frob_error,
    zeros,
)

import oracles
from oracles import cmatrix, random_complex


def test_dims_validation():
    d = Dims(2, 3, 4)
    assert (d.n_atoms, d.n_l, d.n_g) == (2, 3, 4)
    for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0), (float("inf"), 1, 1),
                (1, float("-inf"), 1), (1, 1, float("nan"))]:
        with pytest.raises(InputError):
            Dims(*bad)
    with pytest.raises(InputError):
        Dims(1.5, 1, 1)


def test_dims_nl_may_exceed_ng():
    d = Dims(1, 8, 3)
    assert d.n_l > d.n_g


def test_mirror_simple():
    m = cmatrix([[2, 99], [3 - 1j, 5]])
    out = hermitian_mirror(m)
    np.testing.assert_array_equal(out, np.array([[2, 3 + 1j], [3 - 1j, 5]]))


def test_mirror_real_symmetric():
    m = cmatrix([[1, 0], [2, 3]])
    out = hermitian_mirror(m)
    np.testing.assert_array_equal(out, np.array([[1, 2], [2, 3]], dtype=complex))


def test_mirror_random_is_hermitian_and_idempotent():
    rng = np.random.default_rng(8)
    m = random_complex(rng, 8, 8)
    out = hermitian_mirror(m)
    assert hermitian_defect(out) == 0.0
    assert is_hermitian(out, tol=0.0)
    again = hermitian_mirror(out)
    assert again.tobytes() == out.tobytes()
    # strict lower triangle passes through untouched; diagonal keeps its real part
    assert np.array_equal(np.tril(out, -1), np.tril(np.asarray(m), -1))
    assert np.array_equal(np.diagonal(out), np.diagonal(m).real)


def test_mirror_requires_square():
    with pytest.raises(DimensionError):
        hermitian_mirror(cmatrix([[1, 2, 3]]))


@pytest.mark.parametrize("n", [1, 5, 255, 256, 257, 600])
def test_mirror_matches_triu_indices_form_bitwise(n):
    rng = np.random.default_rng(n)
    values = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
    m = np.empty((n, n), dtype=np.complex128, order="F")
    m.real = rng.choice(values, (n, n))  # parts set apart: inf*1j would make NaNs
    m.imag = rng.choice(values, (n, n))
    expected = oracles.mirror_triu_indices(m).tobytes()  # the oracle copies m
    assert hermitian_mirror(m) is m  # the upper triangle is filled in place
    assert m.tobytes() == expected
    assert hermitian_mirror(m).tobytes() == expected


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_mirror_blocks_match_triu_indices_form_bitwise(n):
    # n on both sides of the 64-block edge and a ragged last block; the
    # strict lower triangle holds signed zeros, which the conjugate must
    # carry over with their signs, and the diagonal is not real
    rng = np.random.default_rng(100 + n)
    m = random_complex(rng, n, n)
    low = np.tril_indices(n, k=-1)
    zeros = rng.random(low[0].size) < 0.3
    m.real[low[0][zeros], low[1][zeros]] = rng.choice([0.0, -0.0], zeros.sum())
    m.imag[low[0][zeros], low[1][zeros]] = rng.choice([0.0, -0.0], zeros.sum())
    m[np.diag_indices(n)] += 1j
    expected = oracles.mirror_triu_indices(m).tobytes()
    hermitian_mirror(m)
    assert m.tobytes() == expected
    assert hermitian_mirror(m).tobytes() == expected  # idempotent


def test_mirror_peak_memory_stays_near_matrix_size():
    n = 1024
    m = random_complex(np.random.default_rng(4), n, n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        hermitian_mirror(m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # full-size upper-triangle index arrays and gathers peaked at 2.5x
    assert peak <= 1.5 * m.nbytes


def test_rel_frob_error():
    rng = np.random.default_rng(5)
    m = random_complex(rng, 4, 4)
    assert rel_frob_error(m, m) == 0.0
    z = np.zeros((3, 3), dtype=complex)
    assert rel_frob_error(z, z) == 0.0
    assert rel_frob_error(cmatrix([[1]]), cmatrix([[0]])) == 1.0
    with pytest.raises(DimensionError):
        rel_frob_error(m, z)


def test_rel_frob_error_zero_iff_identical():
    rng = np.random.default_rng(6)
    a = random_complex(rng, 5, 3)
    b = a.copy()
    assert rel_frob_error(a, b) == 0.0
    b[2, 1] = np.nextafter(b[2, 1].real, np.inf) + 1j * b[2, 1].imag
    assert rel_frob_error(a, b) > 0.0


def test_is_hermitian():
    rng = np.random.default_rng(9)
    m = hermitian_mirror(random_complex(rng, 6, 6))
    assert is_hermitian(m)
    bad = m.copy()
    bad[0, 1] += 1.0  # upper-triangle defect
    assert not is_hermitian(bad)
    bad2 = m.copy()
    bad2[2, 2] += 1j  # imaginary diagonal
    assert not is_hermitian(bad2)
    assert not is_hermitian(np.full((2, 2), np.nan, dtype=complex))
    for inf in (np.inf, complex(0, np.inf)):
        lone = zeros(2, 2)
        lone[0, 1] = inf  # no inf partner: the defect is inf, not NaN
        assert not is_hermitian(lone)
    for shape in ((2, 3), (1, 3), (3, 1)):
        with pytest.raises(DimensionError):
            is_hermitian(np.ones(shape))


def test_is_hermitian_mirrored():
    # a mirrored lower triangle meets the full contract, whatever the upper one held
    m = random_complex(np.random.default_rng(10), 4, 4)
    assert not is_hermitian(m)
    assert is_hermitian(hermitian_mirror(m), tol=0.0)
    assert hermitian_defect(m) == 0.0


def test_a_stack_gets_each_matrix_s_defect_and_verdict():
    rng = np.random.default_rng(11)
    stack = np.stack([hermitian_mirror(random_complex(rng, 5, 5)) for _ in range(6)])
    stack[1, 0, 3] += 1e-3  # upper-triangle defect
    stack[2, 4, 4] += 1j  # imaginary diagonal
    stack[3, 2, 1] = np.nan
    stack[4, 1, 0] = np.inf  # no inf partner
    defects = hermitian_defect(stack)
    verdicts = is_hermitian(stack)
    assert defects.shape == verdicts.shape == (6,)
    for m, defect, verdict in zip(stack, defects, verdicts):
        single = hermitian_defect(m)
        assert np.isnan(defect) == np.isnan(single) and (np.isnan(single) or defect == single)
        assert verdict == is_hermitian(m)
    assert verdicts.tolist() == [True, False, False, False, False, True]
    with pytest.raises(DimensionError):
        is_hermitian(np.ones((3, 2, 3)))
