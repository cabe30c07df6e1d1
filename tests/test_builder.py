import tracemalloc

import numpy as np
import pytest

from hsgen import builder, kernels, probgen
from hsgen.builder import build_hs
from hsgen.kernels import (
    SECTIONS,
    ExecPolicy,
    KernelKind,
    gemm,
    hermitian_mirror,
    loop2,
    potrf_route,
)
from hsgen.matcore import (
    Dims,
    InvariantError,
    frobenius,
    is_hermitian,
    rel_frob_error,
    zeros,
)
from hsgen.probgen import ProblemSpec, generate
from hsgen.reference import h_reference, s_reference
from hsgen.report import section_flops
from hsgen.storage import load_instance, save_instance

from oracles import random_complex, random_hermitian


def _scalar_instance(a, b, t, u, v, w):
    from hsgen.probgen import ProblemInstance

    return ProblemInstance(
        Dims(1, 1, 1), *(np.array([[[x]]], dtype=complex) for x in (a, b, t, u, v)),
        u_norms=np.array([[w]], dtype=float))


def _zero(blocks):
    for m in blocks:
        m[:] = 0


def _gram(blocks):
    st = np.vstack(blocks)
    return np.conj(st.T) @ st


def _aa_term(p):
    return sum(np.conj(a.T) @ hermitian_mirror(t) @ a for a, t in zip(p.a_blocks, p.t_aa))


# ---------------------------------------------------------------------------
# Loop 1 (seen through H with every t_aa zero, so H is the H1 cross term)


def test_phase1_identity_bb_recovers_b():
    # t_ab = 0 and t_bb = 2I make Z = B, so the cross term is 2 B^H B
    p = generate(ProblemSpec(Dims(3, 4, 5), seed=1))
    _zero(p.t_ab)
    _zero(p.t_aa)
    for m in p.t_bb:
        m[:] = 2 * np.eye(4)
    out = build_hs(p)
    assert rel_frob_error(out.h.matrix, 2 * _gram(p.b_blocks)) < 1e-13


def test_phase1_scalar():
    a, b = 0.8 + 0.3j, -0.5 + 0.9j
    u, v = 0.2 - 0.4j, 1.1
    p = _scalar_instance(a, b, 0.0, u, v, 1.0)
    z = u.conjugate() * a + v * b / 2
    out = build_hs(p)
    np.testing.assert_allclose(out.h.matrix, [[2 * (z.conjugate() * b).real]],
                               rtol=1e-14, atol=0)


def test_phase1_matches_gemm_oracle_with_explicit_ba():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=2))
    _zero(p.t_aa)
    expected = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        t_ba = np.asfortranarray(np.conj(p.t_ab[a].T))
        z = zeros(3, 4)
        gemm(1, "N", t_ba, "N", p.a_blocks[a], 0, z)
        z += 0.5 * (hermitian_mirror(p.t_bb[a]) @ p.b_blocks[a])
        b = p.b_blocks[a]
        expected += np.conj(z.T) @ b + np.conj(b.T) @ z
    assert rel_frob_error(build_hs(p).h.matrix, expected) < 1e-13


def test_phase1_ledger_sections():
    p = generate(ProblemSpec(Dims(3, 2, 4), seed=3))
    records = build_hs(p).ledger.records[:7]
    assert [r.section for r in records] == ["Loop 1"] * 6 + ["H1"]
    assert [r.kind for r in records[:6]] == [KernelKind.GEMM, KernelKind.HEMM] * 3


# ---------------------------------------------------------------------------
# H1 cross term


def test_h_cross_zero_z():
    # t_ab = t_bb = 0 make Z = 0, and t_aa = 0 leaves nothing else in H
    p = generate(ProblemSpec(Dims(2, 3, 5), seed=4))
    _zero(p.t_ab)
    _zero(p.t_bb)
    _zero(p.t_aa)
    out = build_hs(p)
    np.testing.assert_array_equal(out.h.matrix, zeros(5, 5))
    assert rel_frob_error(out.s.matrix, s_reference(p)) < 1e-12


def test_h_cross_scalar_closed_form():
    # hand expansion of z^H b + b^H z with z = conj(u) a + v b / 2:
    # 2 Re(u conj(a) b) + v |b|^2 for real v
    a, b = 0.8 + 0.3j, -0.5 + 0.9j
    u, v = 0.2 - 0.4j, 1.1
    got = build_hs(_scalar_instance(a, b, 0.0, u, v, 1.0)).h.matrix[0, 0]
    expected = 2 * (u * a.conjugate() * b).real + v * abs(b) ** 2
    assert got == pytest.approx(expected, rel=1e-14)
    # cross-check against the reference oracle minus its AA term
    full = h_reference(_scalar_instance(a, b, 0.9, u, v, 1.0))[0, 0]
    aa_term = (a.conjugate() * 0.9 * a).real
    assert got == pytest.approx(full.real - aa_term, rel=1e-12)


def test_h_cross_equals_reference_minus_aa_term():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=5))
    expected = h_reference(p) - _aa_term(p)
    _zero(p.t_aa)
    assert rel_frob_error(build_hs(p).h.matrix, expected) < 1e-12


def test_half_trick_identity_standalone():
    # z^H b + b^H z reproduces the AB + BA + BB cross sum
    p = generate(ProblemSpec(Dims(3, 4, 6), seed=6))
    _zero(p.t_aa)
    got = build_hs(p).h.matrix
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
    expected = _gram(p.a_blocks) + _gram(p.b_blocks)
    assert rel_frob_error(build_hs(p).s.matrix, expected) < 1e-13


def test_build_s_scalar():
    a, b, w = 0.8 + 0.3j, -0.5 + 0.9j, 0.75
    p = _scalar_instance(a, b, 1.0, 0.0, 1.0, w)
    s = build_hs(p).s.matrix
    np.testing.assert_allclose(s, [[abs(a) ** 2 + w**2 * abs(b) ** 2]], rtol=1e-14)


def test_build_s_matches_reference():
    p = generate(ProblemSpec(Dims(3, 4, 6), seed=8))
    assert rel_frob_error(build_hs(p).s.matrix, s_reference(p)) < 1e-12


def test_build_s_leaves_b_blocks_untouched():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=9))
    before = [b.tobytes() for b in p.b_blocks]
    build_hs(p)
    assert [b.tobytes() for b in p.b_blocks] == before


def test_build_s_ledger_sections():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=10))
    sections = [r.section for r in build_hs(p).ledger.records]
    assert [x for x in sections if x in ("S1", "U norm", "S2")] == ["S1", "U norm", "S2"]


# ---------------------------------------------------------------------------
# Loop 2 and the AA term


def test_phase2_identity_taa_reproduces_gram():
    # t_ab = t_bb = 0 and t_aa = I leave H = sum A^H A
    p = generate(ProblemSpec(Dims(3, 4, 5), seed=11))
    _zero(p.t_ab)
    _zero(p.t_bb)
    for t in p.t_aa:
        t[:] = np.eye(4)
    out = build_hs(p)
    assert out.split.nonhpd == 0
    assert rel_frob_error(out.h.matrix, _gram(p.a_blocks)) < 1e-13


def _fail_every_factorization(monkeypatch):
    """Send every atom down the fallback path of Loop 2: its routing says
    that no block factors."""
    monkeypatch.setattr(kernels, "potrf_route",
                        lambda t, engine: (np.ones(len(t), dtype=np.intc), np.zeros(len(t))))


def test_phase2_forced_branch_matches_hpd_path(monkeypatch):
    p = generate(ProblemSpec(Dims(4, 3, 5), seed=12, nonhpd_fraction=0.0))
    o1 = build_hs(p)
    _fail_every_factorization(monkeypatch)
    o2 = build_hs(p)
    assert (o1.split.hpd, o1.split.nonhpd) == (4, 0)
    assert (o2.split.hpd, o2.split.nonhpd) == (0, 4)
    assert rel_frob_error(o1.h.matrix, o2.h.matrix) < 1e-10
    assert o1.s.matrix.tobytes() == o2.s.matrix.tobytes()


def test_phase2_mixed_split():
    p = generate(ProblemSpec(Dims(4, 3, 5), seed=13, nonhpd_fraction=0.5))
    out = build_hs(p)
    assert out.split.hpd == 2 and out.split.nonhpd == 2
    assert rel_frob_error(out.h.matrix, h_reference(p)) < 1e-12


def test_phase2_stacks_follow_split_order():
    p = generate(ProblemSpec(Dims(5, 2, 4), seed=14, nonhpd_fraction=0.4))
    split = build_hs(p).split
    assert (split.hpd, split.nonhpd) == (3, 2)


def test_cholesky_path_identity():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n_l, n_g = int(rng.integers(2, 9)), int(rng.integers(2, 17))
        t = random_hermitian(rng, n_l, rng.uniform(0.5, 2.0, n_l))
        a = random_complex(rng, n_l, n_g)
        info, _ = potrf_route(t[None])
        assert info.tolist() == [0]
        y = zeros(n_l, n_g)
        loop2(info, t[None], a[None], y, zeros(n_l, n_g))
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
        for engine in kernels.ENGINES:
            out = build_hs(p, ExecPolicy(engine=engine))
            assert rel_frob_error(out.h.matrix, h_reference(p)) <= 1e-9
            assert rel_frob_error(out.s.matrix, s_reference(p)) <= 1e-9
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


@pytest.mark.parametrize("engine", kernels.ENGINES)
def test_a_build_enters_the_driver_once_per_heavy_record(monkeypatch, engine):
    # the engines are leaves: their per-atom loops reach neither the tiled
    # driver nor the public mirror, whatever the engine
    calls = []

    def counted(fn):
        return lambda *args, **kw: calls.append(fn.__name__) or fn(*args, **kw)

    for name in ("run_partitioned", "hermitian_mirror"):
        monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
    monkeypatch.setattr(builder, "run_partitioned", kernels.run_partitioned)
    p = generate(ProblemSpec(Dims(3, 4, 40), seed=5, nonhpd_fraction=1 / 3))
    out = build_hs(p, ExecPolicy(workers=2, tile=32, engine=engine))
    heavy = [r.section for r in out.ledger if r.section in ("H1", "S1", "S2", "H2", "H3")]
    assert heavy == ["H1", "S1", "S2", "H2", "H3"]
    assert calls == ["run_partitioned"] * 5 + ["hermitian_mirror"]


def test_build_with_an_integral_float_policy_is_bit_identical():
    policy = ExecPolicy(2.0, 64.0)
    assert (type(policy.workers), type(policy.tile)) == (int, int)
    p = generate(ProblemSpec(Dims(3, 4, 80), seed=22, nonhpd_fraction=0.5))
    o1 = build_hs(p, policy)
    o2 = build_hs(p, ExecPolicy(2, 64))
    assert o1.h.matrix.tobytes() == o2.h.matrix.tobytes()
    assert o1.s.matrix.tobytes() == o2.s.matrix.tobytes()
    assert o1.split == o2.split


def test_build_hs_outputs_pass_hermitian_invariants():
    p = generate(ProblemSpec(Dims(3, 4, 8), seed=21, nonhpd_fraction=0.5))
    out = build_hs(p, ExecPolicy(workers=2, tile=32))
    assert is_hermitian(out.h.matrix)
    assert is_hermitian(out.s.matrix)


# ---------------------------------------------------------------------------
# more than one chunk: one atom per chunk, and 3 + 3 + 1 atoms


def _set_chunk_atoms(monkeypatch, dims, atoms):
    monkeypatch.setattr(probgen, "_CHUNK_BYTES", atoms * 16 * dims.n_l * dims.n_g)


@pytest.mark.parametrize("atoms", [1, 3])
def test_chunked_build_oracle_sweep(monkeypatch, atoms):
    rng = np.random.default_rng(30 + atoms)
    for trial in range(6):
        dims = Dims(int(rng.integers(2, 8)), int(rng.integers(2, 7)), int(rng.integers(4, 25)))
        _set_chunk_atoms(monkeypatch, dims, atoms)
        frac = float(rng.choice([0.0, 0.5, 1.0]))
        p = generate(ProblemSpec(dims, seed=trial, nonhpd_fraction=frac))
        out = build_hs(p)
        assert rel_frob_error(out.h.matrix, h_reference(p)) <= 1e-9
        assert rel_frob_error(out.s.matrix, s_reference(p)) <= 1e-9
        assert out.split.hpd + out.split.nonhpd == dims.n_atoms


@pytest.mark.parametrize("atoms", [1, 3])
def test_chunked_forced_branch_matches_hpd_path(monkeypatch, atoms):
    dims = Dims(7, 3, 6)
    _set_chunk_atoms(monkeypatch, dims, atoms)
    p = generate(ProblemSpec(dims, seed=32, nonhpd_fraction=0.0))
    o1 = build_hs(p)
    _fail_every_factorization(monkeypatch)
    o2 = build_hs(p)
    assert (o1.split.hpd, o2.split.nonhpd) == (7, 7)
    assert rel_frob_error(o1.h.matrix, o2.h.matrix) <= 1e-10


@pytest.mark.parametrize("atoms", [1, 3])
def test_chunked_build_is_worker_and_tile_invariant(monkeypatch, atoms):
    dims = Dims(7, 3, 40)
    _set_chunk_atoms(monkeypatch, dims, atoms)
    p = generate(ProblemSpec(dims, seed=33, nonhpd_fraction=0.5))
    outs = [build_hs(p, ExecPolicy(workers=w, tile=t, engine=e))
            for w in (1, 2) for t in (32, 512) for e in kernels.ENGINES]
    for o in outs[1:]:
        assert o.h.matrix.tobytes() == outs[0].h.matrix.tobytes()
        assert o.s.matrix.tobytes() == outs[0].s.matrix.tobytes()


@pytest.mark.parametrize("atoms", [1, 3])
def test_chunked_ledger_matches_closed_form_and_section_order(monkeypatch, atoms):
    dims = Dims(7, 3, 6)
    _set_chunk_atoms(monkeypatch, dims, atoms)
    p = generate(ProblemSpec(dims, seed=34, nonhpd_fraction=0.5))
    out = build_hs(p)
    got = {k: v[0] for k, v in out.ledger.section_totals().items()}
    expected = {k: v for k, v in section_flops(dims, out.split.nonhpd).items() if v}
    assert got == expected
    # every chunk runs the pipeline in order: a new chunk starts at Loop 1
    chunks = []
    for r in out.ledger.records:
        if r.section == "Loop 1" and (not chunks or chunks[-1][-1] != "Loop 1"):
            chunks.append([])
        chunks[-1].append(r.section)
    assert len(chunks) == -(-dims.n_atoms // atoms)
    pipeline = ["Loop 1", "H1", "S1", "U norm", "S2", "Loop 2", "H2", "H3"]
    assert set(pipeline) == set(SECTIONS)
    for sections in chunks:
        seen = list(dict.fromkeys(sections))
        assert seen == [x for x in pipeline if x in seen]
        assert seen[:6] == pipeline[:6]


@pytest.mark.parametrize("atoms", [1, 3])
def test_chunked_build_leaves_blocks_untouched(monkeypatch, atoms):
    dims = Dims(7, 3, 6)
    _set_chunk_atoms(monkeypatch, dims, atoms)
    p = generate(ProblemSpec(dims, seed=35, nonhpd_fraction=0.5))
    fields = ("a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb", "u_norms")
    before = [[m.tobytes() for m in getattr(p, f)] for f in fields]
    build_hs(p)
    assert [[m.tobytes() for m in getattr(p, f)] for f in fields] == before


def test_build_peak_does_not_grow_with_atoms(monkeypatch):
    # at a fixed 2-atom chunk the scratch memory is the same for any atom count
    build_hs(generate(ProblemSpec(Dims(2, 8, 64), seed=36)))  # first-call allocations stay out

    def peak(n_atoms):
        dims = Dims(n_atoms, 8, 64)
        _set_chunk_atoms(monkeypatch, dims, 2)
        p = generate(ProblemSpec(dims, seed=36, nonhpd_fraction=0.25))
        tracemalloc.start()
        try:
            build_hs(p)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) <= 1.25 * peak(8)


def test_build_peak_is_the_same_for_a_generated_and_a_loaded_instance(tmp_path):
    # one chunk: A's rows are a view of the stacked field and B is copied
    # once, for S2; a field whose reshape silently copied would add a
    # k x n_g stack to one of the two peaks
    dims = Dims(8, 16, 32)
    p = generate(ProblemSpec(dims, seed=37))
    save_instance(p, tmp_path)
    q = load_instance(tmp_path)
    build_hs(p)  # first-call allocations stay out of the peaks

    def peak(inst):
        tracemalloc.start()
        try:
            build_hs(inst)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    generated, loaded = peak(p), peak(q)
    stack = 16 * dims.n_atoms * dims.n_l * dims.n_g
    outputs = 2 * 16 * dims.n_g**2  # H and S, mirrored in place
    assert abs(generated - loaded) < 0.01 * stack
    # Z, the scaled copy of B and the scratch read 2.6 stacks under the
    # native engine and 3.0 under numpy; copying A or B into a chunk
    # buffer would add one more
    assert (loaded - outputs) / stack < 3.6


#: Scratch one worker holds while it computes one block of a large update,
#: in complex blocks of the output's grid: at most four under numpy (the
#: two accumulator and two product planes, the packed product, its copy
#: scaled by alpha and the tail's temporaries) and at most two under
#: native (its packs and at most one plane pair).
_BLOCK_SCRATCH = 4 * 16 * kernels._BLOCK**2


@pytest.mark.parametrize("atoms", [None, 2], ids=["one-chunk", "2-atom-chunks"])
def test_build_peak_is_outputs_plus_chunk_buffers(monkeypatch, atoms):
    # H and S, three chunk buffers (Z, scaled B / X, the H2 gather) and
    # each worker's block scratch; no copy of H or S fits under the bound
    dims = Dims(9, 4, 1024)
    if atoms is not None:
        _set_chunk_atoms(monkeypatch, dims, atoms)
    chunks = probgen.atom_chunks(dims)
    assert len(chunks) == (1 if atoms is None else 5)
    k = dims.n_l * max(a1 - a0 for a0, a1 in chunks)
    policy = ExecPolicy(workers=2, tile=256)
    p = generate(ProblemSpec(dims, seed=37, nonhpd_fraction=0.5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build_hs(p, policy)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < out.split.nonhpd < dims.n_atoms  # both H2 and H3 ran
    bound = 2 * 16 * dims.n_g**2 + 3 * 16 * k * dims.n_g + policy.workers * _BLOCK_SCRATCH
    assert peak <= bound, (peak, bound)
