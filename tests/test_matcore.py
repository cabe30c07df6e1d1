import tracemalloc

import numpy as np
import pytest

from hsgen.matcore import (
    DimensionError,
    Dims,
    Fill,
    HermitianResult,
    InputError,
    InvariantError,
    as_cmatrix,
    hermitian_defect,
    hermitian_mirror,
    is_hermitian,
    rel_frob_error,
    stack,
)

import oracles
from oracles import random_complex


def test_dims_validation():
    d = Dims(2, 3, 4)
    assert (d.n_atoms, d.n_l, d.n_g) == (2, 3, 4)
    for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0)]:
        with pytest.raises(InputError):
            Dims(*bad)
    with pytest.raises(InputError):
        Dims(1.5, 1, 1)


def test_dims_nl_may_exceed_ng():
    d = Dims(1, 8, 3)
    assert d.n_l > d.n_g


def test_stack_two_rows():
    out = stack([as_cmatrix([[1, 2]]), as_cmatrix([[3, 4]])])
    np.testing.assert_array_equal(out, np.array([[1, 2], [3, 4]], dtype=complex))


def test_stack_single_block_is_copy():
    m = as_cmatrix([[1 + 2j, 3], [4, 5j]])
    out = stack([m])
    np.testing.assert_array_equal(out, m)
    out[0, 0] = 0
    assert m[0, 0] == 1 + 2j


def test_stack_index_arithmetic():
    # entries i + j*10 + a*100 for block a, local row i, column j
    n_a, n_l, n_g = 3, 2, 4
    blocks = [
        as_cmatrix([[i + j * 10 + a * 100 for j in range(n_g)] for i in range(n_l)])
        for a in range(n_a)
    ]
    out = stack(blocks)
    assert out.shape == (n_a * n_l, n_g)
    for a in range(n_a):
        for i in range(n_l):
            for j in range(n_g):
                assert out[a * n_l + i, j] == i + j * 10 + a * 100


def test_stack_errors():
    with pytest.raises(DimensionError):
        stack([])
    with pytest.raises(DimensionError, match="block 1"):
        stack([as_cmatrix([[1, 2]]), as_cmatrix([[1, 2, 3]])])


def test_stack_associative():
    rng = np.random.default_rng(3)
    x = random_complex(rng, 2, 5)
    y = random_complex(rng, 3, 5)
    z = random_complex(rng, 1, 5)
    a = stack([x, y, z])
    b = stack([stack([x, y]), z])
    assert a.tobytes() == b.tobytes()


def test_mirror_simple():
    m = as_cmatrix([[2, 99], [3 - 1j, 5]])
    out = hermitian_mirror(m)
    np.testing.assert_array_equal(out, np.array([[2, 3 + 1j], [3 - 1j, 5]]))


def test_mirror_real_symmetric():
    m = as_cmatrix([[1, 0], [2, 3]])
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
        hermitian_mirror(as_cmatrix([[1, 2, 3]]))


@pytest.mark.parametrize("n", [1, 5, 255, 256, 257, 600])
def test_mirror_matches_triu_indices_form_bitwise(n):
    rng = np.random.default_rng(n)
    values = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
    m = np.empty((n, n), dtype=np.complex128, order="F")
    m.real = rng.choice(values, (n, n))  # parts set apart: inf*1j would make NaNs
    m.imag = rng.choice(values, (n, n))
    before = m.tobytes()
    out = hermitian_mirror(m)
    assert m.tobytes() == before
    assert out.tobytes() == oracles.mirror_triu_indices(m).tobytes()
    assert hermitian_mirror(out).tobytes() == out.tobytes()


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
    assert rel_frob_error(as_cmatrix([[1]]), as_cmatrix([[0]])) == 1.0
    with pytest.raises(DimensionError):
        rel_frob_error(m, z)


def test_rel_frob_error_zero_iff_identical():
    rng = np.random.default_rng(6)
    a = random_complex(rng, 5, 3)
    b = a.copy()
    assert rel_frob_error(a, b) == 0.0
    b[2, 1] = np.nextafter(b[2, 1].real, np.inf) + 1j * b[2, 1].imag
    assert rel_frob_error(a, b) > 0.0


def test_hermitian_result_check():
    rng = np.random.default_rng(9)
    m = hermitian_mirror(random_complex(rng, 6, 6))
    HermitianResult(m, Fill.FULL).check()
    bad = m.copy()
    bad[0, 1] += 1.0
    with pytest.raises(InvariantError):
        HermitianResult(bad, Fill.FULL).check()
    bad2 = m.copy()
    bad2[2, 2] += 1j
    with pytest.raises(InvariantError):
        HermitianResult(bad2, Fill.LOWER).check()
    with pytest.raises(InvariantError):
        HermitianResult(np.full((2, 2), np.nan, dtype=complex), Fill.LOWER).check()


def test_hermitian_result_mirrored():
    rng = np.random.default_rng(10)
    m = random_complex(rng, 4, 4)
    res = HermitianResult(m, Fill.LOWER).mirrored()
    assert res.fill is Fill.FULL
    assert hermitian_defect(res.matrix) == 0.0

