import numpy as np
import pytest

from hsgen.builder import build_hs, build_phase1, build_phase2, build_s, h_cross
from hsgen.executor import ExecPolicy
from hsgen.kernels import FlopLedger, KernelKind, gemm, potrf_lower, trmm_left_conjtrans
from hsgen.matcore import (
    Dims,
    Fill,
    HermitianResult,
    InvariantError,
    frobenius,
    hermitian_mirror,
    rel_frob_error,
    stack,
    zeros,
)
from hsgen.probgen import ProblemSpec, generate
from hsgen.reference import h_reference, s_reference
from hsgen.report import section_flops

from oracles import random_complex, random_hermitian


def _scalar_instance(a, b, t, u, v, w):
    from hsgen.probgen import ProblemInstance

    inst = ProblemInstance(Dims(1, 1, 1))
    inst.a_blocks.append(np.array([[a]], dtype=complex, order="F"))
    inst.b_blocks.append(np.array([[b]], dtype=complex, order="F"))
    inst.t_aa.append(np.array([[t]], dtype=complex, order="F"))
    inst.t_ab.append(np.array([[u]], dtype=complex, order="F"))
    inst.t_bb.append(np.array([[v]], dtype=complex, order="F"))
    inst.u_norms.append(np.array([w], dtype=float))
    return inst


# ---------------------------------------------------------------------------
# phase 1


def test_phase1_identity_bb_recovers_b():
    p = generate(ProblemSpec(Dims(3, 4, 5), seed=1))
    for m in p.t_ab:
        m[:] = 0
    for m in p.t_bb:
        m[:] = 2 * np.eye(4)
    z_stack, b_stack = build_phase1(p)
    assert rel_frob_error(z_stack, b_stack) < 1e-15
    np.testing.assert_array_equal(b_stack, stack(p.b_blocks))


def test_phase1_scalar():
    a, b = 0.8 + 0.3j, -0.5 + 0.9j
    u, v = 0.2 - 0.4j, 1.1
    p = _scalar_instance(a, b, 1.0, u, v, 1.0)
    z_stack, _ = build_phase1(p)
    expected = u.conjugate() * a + v * b / 2
    np.testing.assert_allclose(z_stack, [[expected]], rtol=1e-15, atol=0)


def test_phase1_matches_gemm_oracle_with_explicit_ba():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=2))
    z_stack, _ = build_phase1(p)
    for a in range(2):
        t_ba = np.asfortranarray(np.conj(p.t_ab[a].T))
        expected = zeros(3, 4)
        gemm(1, "N", t_ba, "N", p.a_blocks[a], 0, expected)
        expected += 0.5 * (hermitian_mirror(p.t_bb[a]) @ p.b_blocks[a])
        assert rel_frob_error(z_stack[a * 3 : (a + 1) * 3], expected) < 1e-13


def test_phase1_ledger_sections():
    p = generate(ProblemSpec(Dims(3, 2, 4), seed=3))
    led = FlopLedger()
    build_phase1(p, led)
    assert [r.section for r in led.records] == ["Loop 1"] * 6
    assert [r.kind for r in led.records] == [KernelKind.GEMM, KernelKind.HEMM] * 3


# ---------------------------------------------------------------------------
# H1 cross term


def test_h_cross_zero_z():
    b = random_complex(np.random.default_rng(4), 6, 5)
    res = h_cross(zeros(6, 5), b)
    assert res.fill is Fill.LOWER
    np.testing.assert_array_equal(res.matrix, zeros(5, 5))


def test_h_cross_scalar_closed_form():
    # hand expansion of z^H b + b^H z with z = conj(u) a + v b / 2:
    # 2 Re(u conj(a) b) + v |b|^2 for real v
    a, b = 0.8 + 0.3j, -0.5 + 0.9j
    u, v = 0.2 - 0.4j, 1.1
    p = _scalar_instance(a, b, 0.9, u, v, 1.0)
    z_stack, b_stack = build_phase1(p)
    got = h_cross(z_stack, b_stack).matrix[0, 0]
    expected = 2 * (u * a.conjugate() * b).real + v * abs(b) ** 2
    assert got == pytest.approx(expected, rel=1e-14)
    # cross-check against the reference oracle minus its AA term
    full = h_reference(p).matrix[0, 0]
    aa_term = (a.conjugate() * 0.9 * a).real
    assert got == pytest.approx(full.real - aa_term, rel=1e-12)


def test_h_cross_equals_reference_minus_aa_term():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=5))
    z_stack, b_stack = build_phase1(p)
    partial = h_cross(z_stack, b_stack).mirrored().matrix
    aa = sum(np.conj(a.T) @ hermitian_mirror(t) @ a for a, t in zip(p.a_blocks, p.t_aa))
    expected = h_reference(p).matrix - aa
    assert rel_frob_error(partial, expected) < 1e-12


def test_half_trick_identity_standalone():
    # z^H b + b^H z reproduces the AB + BA + BB cross sum
    p = generate(ProblemSpec(Dims(3, 4, 6), seed=6))
    z_stack, b_stack = build_phase1(p)
    got = h_cross(z_stack, b_stack).mirrored().matrix
    expected = np.zeros((6, 6), dtype=complex)
    for a in range(3):
        A, B = p.a_blocks[a], p.b_blocks[a]
        tab = np.asarray(p.t_ab[a])
        tbb = hermitian_mirror(p.t_bb[a])
        expected += np.conj(A.T) @ tab @ B
        expected += np.conj(B.T) @ np.conj(tab.T) @ A
        expected += np.conj(B.T) @ tbb @ B
    assert rel_frob_error(got, expected) < 1e-12


# ---------------------------------------------------------------------------
# S


def test_build_s_unit_norms():
    p = generate(ProblemSpec(Dims(3, 2, 5), seed=7))
    for u in p.u_norms:
        u[:] = 1.0
    s = build_s(p).matrix
    a_st, b_st = stack(p.a_blocks), stack(p.b_blocks)
    expected = np.conj(a_st.T) @ a_st + np.conj(b_st.T) @ b_st
    assert rel_frob_error(s, expected) < 1e-13


def test_build_s_scalar():
    a, b, w = 0.8 + 0.3j, -0.5 + 0.9j, 0.75
    p = _scalar_instance(a, b, 1.0, 0.0, 1.0, w)
    s = build_s(p).matrix
    np.testing.assert_allclose(s, [[abs(a) ** 2 + w**2 * abs(b) ** 2]], rtol=1e-14)


def test_build_s_matches_reference():
    p = generate(ProblemSpec(Dims(3, 4, 6), seed=8))
    s = build_s(p)
    assert s.fill is Fill.FULL
    assert rel_frob_error(s.matrix, s_reference(p).matrix) < 1e-12


def test_build_s_leaves_b_blocks_untouched():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=9))
    before = [b.tobytes() for b in p.b_blocks]
    build_s(p)
    assert [b.tobytes() for b in p.b_blocks] == before


def test_build_s_ledger_sections():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=10))
    led = FlopLedger()
    build_s(p, led)
    assert [r.section for r in led.records] == ["S1", "U norm", "S2"]


# ---------------------------------------------------------------------------
# phase 2


def test_phase2_identity_taa_reproduces_gram():
    p = generate(ProblemSpec(Dims(3, 4, 5), seed=11))
    for t in p.t_aa:
        t[:] = np.eye(4)
    h = HermitianResult(zeros(5, 5), Fill.LOWER)
    split = build_phase2(p, h)
    assert split.nonhpd == 0
    a_st = stack(p.a_blocks)
    expected = np.tril(np.conj(a_st.T) @ a_st)
    assert rel_frob_error(np.tril(h.matrix), expected) < 1e-13


def test_phase2_forced_branch_matches_hpd_path():
    p = generate(ProblemSpec(Dims(4, 3, 5), seed=12, nonhpd_fraction=0.0))
    h1 = HermitianResult(zeros(5, 5), Fill.LOWER)
    s1 = build_phase2(p, h1)
    h2 = HermitianResult(zeros(5, 5), Fill.LOWER)
    s2 = build_phase2(p, h2, force_nonhpd=True)
    assert (s1.hpd, s1.nonhpd) == (4, 0)
    assert (s2.hpd, s2.nonhpd) == (0, 4)
    a = hermitian_mirror(h1.matrix)
    b = hermitian_mirror(h2.matrix)
    assert rel_frob_error(a, b) < 1e-10


def test_phase2_mixed_split():
    p = generate(ProblemSpec(Dims(4, 3, 5), seed=13, nonhpd_fraction=0.5))
    out = build_hs(p)
    assert out.split.hpd == 2 and out.split.nonhpd == 2
    assert rel_frob_error(out.h.matrix, h_reference(p).matrix) < 1e-12


def test_phase2_stacks_follow_split_order():
    p = generate(ProblemSpec(Dims(5, 2, 4), seed=14, nonhpd_fraction=0.4))
    h = HermitianResult(zeros(4, 4), Fill.LOWER)
    split = build_phase2(p, h)
    assert split.hpd + split.nonhpd == 5


def test_cholesky_path_identity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n_l, n_g = int(rng.integers(2, 9)), int(rng.integers(2, 17))
        t = random_hermitian(rng, n_l, rng.uniform(0.5, 2.0, n_l))
        a = random_complex(rng, n_l, n_g)
        factor, info = potrf_lower(t)
        assert info == 0
        y = trmm_left_conjtrans(factor, a)
        direct = np.conj(a.T) @ hermitian_mirror(t) @ a
        gram = np.conj(y.T) @ y
        assert frobenius(direct - gram) <= 1e-10 * (1 + frobenius(direct))


# ---------------------------------------------------------------------------
# full build


def test_build_hs_scalar_closed_form():
    t, v, w = 0.7, 1.3, 0.6
    u = 0.2 - 0.4j
    p = _scalar_instance(1.0, 1.0, t, u, v, w)
    out = build_hs(p)
    np.testing.assert_allclose(out.h.matrix, [[t + 2 * u.real + v]], rtol=1e-14)
    np.testing.assert_allclose(out.s.matrix, [[1 + w**2]], rtol=1e-14)


def test_build_hs_oracle_sweep():
    rng = np.random.default_rng(16)
    for trial in range(15):
        dims = Dims(int(rng.integers(1, 7)), int(rng.integers(2, 13)), int(rng.integers(4, 49)))
        frac = float(rng.choice([0.0, 0.5, 1.0]))
        p = generate(ProblemSpec(dims, seed=trial, nonhpd_fraction=frac))
        out = build_hs(p)
        assert rel_frob_error(out.h.matrix, h_reference(p).matrix) <= 1e-9
        assert rel_frob_error(out.s.matrix, s_reference(p).matrix) <= 1e-9
        assert out.split.hpd + out.split.nonhpd == dims.n_atoms


def test_build_hs_restore_contract():
    p = generate(ProblemSpec(Dims(3, 4, 6), seed=17, nonhpd_fraction=0.5))
    before_a = [a.tobytes() for a in p.a_blocks]
    before_b = [b.tobytes() for b in p.b_blocks]
    build_hs(p)
    assert [a.tobytes() for a in p.a_blocks] == before_a
    assert [b.tobytes() for b in p.b_blocks] == before_b


@pytest.mark.parametrize("frac,absent", [(0.0, "H2"), (1.0, "H3"), (0.5, None)])
def test_build_hs_ledger_matches_closed_form(frac, absent):
    dims = Dims(4, 3, 6)
    p = generate(ProblemSpec(dims, seed=18, nonhpd_fraction=frac))
    out = build_hs(p)
    got = {k: v[0] for k, v in out.ledger.section_totals().items()}
    expected = section_flops(dims, out.split.nonhpd)
    for section, flops in expected.items():
        if flops == 0:
            assert section not in got
        else:
            assert got[section] == flops
    if absent:
        assert absent not in got
    assert out.ledger.total_flops() == sum(expected.values())


def test_build_hs_section_order():
    p = generate(ProblemSpec(Dims(3, 2, 4), seed=19, nonhpd_fraction=0.5))
    out = build_hs(p)
    first_seen = list(dict.fromkeys(r.section for r in out.ledger.records))
    assert first_seen == ["Loop 1", "H1", "S1", "U norm", "S2", "Loop 2", "H2", "H3"]


def test_build_hs_rejects_invalid_instance():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=20))
    p.t_aa[0][0, 1] += 1.0
    with pytest.raises(InvariantError):
        build_hs(p)


def test_build_hs_outputs_pass_hermitian_invariants():
    p = generate(ProblemSpec(Dims(3, 4, 8), seed=21, nonhpd_fraction=0.5))
    out = build_hs(p, ExecPolicy(workers=2, tile=32))
    out.h.check()
    out.s.check()
