import numpy as np

from hsgen.matcore import Dims, frobenius, is_hermitian, rel_frob_error
from hsgen.probgen import ProblemInstance, ProblemSpec, generate
from hsgen.reference import h_reference, s_reference

from oracles import random_complex, random_hermitian


def _scalar_instance(a, b, t, u, v, w):
    """One atom, all dimensions 1."""
    return ProblemInstance(
        Dims(1, 1, 1), *(np.array([[[x]]], dtype=complex) for x in (a, b, t, u, v)),
        u_norms=np.array([[w]], dtype=float))


def _random_instance(rng, n_a, n_l, n_g):
    atoms = [
        (random_complex(rng, n_l, n_g),
         random_complex(rng, n_l, n_g),
         random_hermitian(rng, n_l, rng.uniform(0.5, 2.0, n_l)),
         random_complex(rng, n_l, n_l),
         random_hermitian(rng, n_l, rng.uniform(0.5, 2.0, n_l)),
         rng.uniform(0.5, 1.5, n_l))
        for _ in range(n_a)
    ]
    # one stacked array per field, in ProblemInstance's field order
    return ProblemInstance(Dims(n_a, n_l, n_g), *map(np.stack, zip(*atoms)))


def _s_by_index_summation(p):
    """Element-level double summation, vectorized independently via einsum."""
    n_g = p.dims.n_g
    s = np.zeros((n_g, n_g), dtype=complex)
    for a in range(p.dims.n_atoms):
        A = np.asarray(p.a_blocks[a])
        B = np.asarray(p.b_blocks[a])
        u2 = np.asarray(p.u_norms[a]) ** 2
        s += np.einsum("li,lj->ij", np.conj(A), A)
        s += np.einsum("l,li,lj->ij", u2, np.conj(B), B)
    return s


def _h_by_index_summation(p):
    n_g = p.dims.n_g
    h = np.zeros((n_g, n_g), dtype=complex)
    for a in range(p.dims.n_atoms):
        A = np.asarray(p.a_blocks[a])
        B = np.asarray(p.b_blocks[a])
        taa = np.asarray(p.t_aa[a])
        tab = np.asarray(p.t_ab[a])
        tbb = np.asarray(p.t_bb[a])
        tba = np.conj(tab.T)
        h += np.einsum("ki,kl,lj->ij", np.conj(A), taa, A)
        h += np.einsum("ki,kl,lj->ij", np.conj(A), tab, B)
        h += np.einsum("ki,kl,lj->ij", np.conj(B), tba, A)
        h += np.einsum("ki,kl,lj->ij", np.conj(B), tbb, B)
    return h


def test_s_scalar_case():
    w = 0.75
    res = s_reference(_scalar_instance(1, 1, 0.5, 0.25j, 0.5, w))
    np.testing.assert_allclose(res, [[1 + w**2]], rtol=0, atol=1e-15)


def test_s_vanishing_b_term():
    rng = np.random.default_rng(20)
    p = _random_instance(rng, 2, 3, 4)
    for b in p.b_blocks:
        b[:] = 0
    res = s_reference(p)
    expected = sum(np.conj(a.T) @ a for a in p.a_blocks)
    assert rel_frob_error(res, expected) < 1e-14
    assert np.linalg.eigvalsh(res)[0] >= -1e-12


def test_s_matches_index_level_summation():
    rng = np.random.default_rng(21)
    p = _random_instance(rng, 3, 4, 5)
    res = s_reference(p)
    assert rel_frob_error(res, _s_by_index_summation(p)) < 1e-13


def test_s_does_not_scale_b_in_place():
    rng = np.random.default_rng(22)
    p = _random_instance(rng, 2, 3, 4)
    before = [b.tobytes() for b in p.b_blocks]
    s_reference(p)
    assert [b.tobytes() for b in p.b_blocks] == before


def test_h_scalar_case():
    t, v = 0.7, 1.3
    u = 0.2 - 0.4j
    a, b = 1.0, 1.0
    res = h_reference(_scalar_instance(a, b, t, u, v, 1.0))
    expected = t + 2 * u.real + v
    np.testing.assert_allclose(res, [[expected]], rtol=0, atol=1e-15)


def test_h_vanishing_cross_terms():
    rng = np.random.default_rng(23)
    p = _random_instance(rng, 2, 3, 4)
    for m in p.t_ab:
        m[:] = 0
    for m in p.t_bb:
        m[:] = 0
    res = h_reference(p)
    expected = sum(
        np.conj(a.T) @ t @ a for a, t in zip(p.a_blocks, p.t_aa)
    )
    assert rel_frob_error(res, expected) < 1e-13


def test_h_matches_index_level_summation():
    rng = np.random.default_rng(24)
    p = _random_instance(rng, 2, 3, 4)
    res = h_reference(p)
    assert rel_frob_error(res, _h_by_index_summation(p)) < 1e-13


def test_h_hermitian_within_tolerance():
    rng = np.random.default_rng(25)
    p = _random_instance(rng, 2, 3, 4)
    assert is_hermitian(h_reference(p))


def test_s_positive_semidefinite_order_64():
    p = generate(ProblemSpec(Dims(4, 8, 64), seed=30))
    s = s_reference(p)
    norm = frobenius(s)
    assert np.linalg.eigvalsh(s)[0] >= -1e-10 * norm


def test_atom_linearity():
    rng = np.random.default_rng(26)
    p = _random_instance(rng, 4, 3, 5)
    fields = ("a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb", "u_norms")
    first = ProblemInstance(Dims(2, 3, 5), *(getattr(p, name)[:2] for name in fields))
    second = ProblemInstance(Dims(2, 3, 5), *(getattr(p, name)[2:] for name in fields))
    for fn in (s_reference, h_reference):
        whole = fn(p)
        parts = fn(first) + fn(second)
        assert rel_frob_error(whole, parts) < 1e-13
