"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np

from hsgen import cli, kernels
from hsgen.builder import build_hs
from hsgen.kernels import ExecPolicy
from hsgen.matcore import Dims, frobenius, is_hermitian, rel_frob_error
from hsgen.probgen import ProblemSpec, generate, preset_dims
from hsgen.reference import h_reference, s_reference
from hsgen.report import heavy_fraction, summarize, validate_flop_model


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS - {text}")


def test_criterion_1_flop_model_reproduction(capsys):
    code = cli.main(["flops", "--preset", "NaCl", "--kmax", "4.0", "--table5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1974.63" in out and "1956.72" in out and "1818.57" in out
    checks, _ = validate_flop_model()
    by_section = {c.section: c for c in checks}
    for section, published in (("S1", 1974.63), ("S2", 1956.72), ("H1", 1818.57)):
        c = by_section[section]
        assert c.published_gflops == published
        assert c.rel_error < 1e-3, (section, c)
    with capsys.disabled():
        _passed(1, "modeled S1/S2/H1 throughput within 0.1% of the recorded "
                   f"breakdown ({', '.join(f'{c.section} {c.modeled_gflops:.2f}' for c in checks)})")


def test_criterion_2_heavy_fraction(capsys):
    nacl = preset_dims("NaCl", 4.0)
    fracs = [heavy_fraction(nacl, m) for m in (0, 128, 256, 512)]
    assert all(f >= 0.97 for f in fracs)
    assert min(fracs) > 0.99  # expected ~0.995
    auag = heavy_fraction(preset_dims("AuAg", 2.5), 0)
    with capsys.disabled():
        _passed(2, f"NaCl k_max=4.0 heavy fraction {min(fracs):.4f} >= 0.97; "
                   f"AuAg k_max=2.5 reported at {auag:.4f} (below 0.97, not asserted)")


def test_criterion_3_oracle_equivalence_sweep(capsys):
    rng = np.random.default_rng(2024)
    fractions = [0.0, 0.5, 1.0]
    worst_h = worst_s = 0.0
    for trial in range(100):
        dims = Dims(
            int(rng.integers(1, 7)),
            int(rng.integers(2, 13)),
            int(rng.integers(4, 49)),
        )
        spec = ProblemSpec(dims, seed=trial, nonhpd_fraction=fractions[trial % 3])
        p = generate(spec)
        out = build_hs(p)
        err_h = rel_frob_error(out.h.matrix, h_reference(p))
        err_s = rel_frob_error(out.s.matrix, s_reference(p))
        assert err_h <= 1e-9, (trial, dims, err_h)
        assert err_s <= 1e-9, (trial, dims, err_s)
        worst_h = max(worst_h, err_h)
        worst_s = max(worst_s, err_s)
    with capsys.disabled():
        _passed(3, f"100 randomized instances vs the brute-force oracle; "
                   f"worst rel error H {worst_h:.2e}, S {worst_s:.2e} (tol 1e-9)")


def test_criterion_4_cholesky_path_equivalence(capsys, monkeypatch):
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(50):
        dims = Dims(int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(4, 25)))
        p = generate(ProblemSpec(dims, seed=1000 + trial, nonhpd_fraction=0.0))
        normal = build_hs(p)
        with monkeypatch.context() as m:  # every factorization fails
            m.setattr(kernels, "potrf_route",
                      lambda t, engine: (np.ones(len(t), dtype=np.intc), np.zeros(len(t))))
            forced = build_hs(p)
        assert normal.split.nonhpd == 0
        assert forced.split.hpd == 0
        err = rel_frob_error(forced.h.matrix, normal.h.matrix)
        assert err <= 1e-10, (trial, dims, err)
        worst = max(worst, err)
    with capsys.disabled():
        _passed(4, f"trmm/herk and hemm/gemm paths agree on 50 HPD instances; "
                   f"worst rel error {worst:.2e} (tol 1e-10)")


def test_criterion_5_determinism_and_restore(capsys, tmp_path):
    # (a) bit-identical outputs across worker counts at fixed tile size
    p = generate(ProblemSpec(Dims(3, 4, 70), seed=5, nonhpd_fraction=0.5))
    outputs = []
    for workers in (1, 2, 4):
        out = build_hs(p, ExecPolicy(workers=workers, tile=32))
        outputs.append((out.h.matrix.tobytes(), out.s.matrix.tobytes()))
    assert outputs[0] == outputs[1] == outputs[2]

    # (b) instance A/B blocks bit-identical before and after a build
    before = [m.tobytes() for m in (*p.a_blocks, *p.b_blocks)]
    build_hs(p)
    after = [m.tobytes() for m in (*p.a_blocks, *p.b_blocks)]
    assert before == after

    # (c) regenerating from the same seed yields byte-identical files
    dirs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli.main(["generate", "--na", "3", "--nl", "4", "--ng", "6",
                         "--seed", "42", "--nonhpd-frac", "0.5", "--out", str(out)])
        assert code == 0
        dirs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert dirs[0] == dirs[1]
    with capsys.disabled():
        _passed(5, "outputs bit-identical for workers 1/2/4; A/B blocks restored; "
                   "regeneration byte-identical")


def test_criterion_6_hermiticity_and_psd(capsys):
    worst_eig = 0.0
    for seed, frac in ((0, 0.0), (1, 0.5), (2, 1.0)):
        p = generate(ProblemSpec(Dims(4, 8, 64), seed=seed, nonhpd_fraction=frac))
        out = build_hs(p)
        assert is_hermitian(out.h.matrix)
        assert is_hermitian(out.s.matrix)
        s = out.s.matrix
        eig_min = float(np.linalg.eigvalsh(s)[0])
        floor = -1e-10 * frobenius(s)
        assert eig_min >= floor, (seed, eig_min, floor)
        worst_eig = min(worst_eig, eig_min)
    with capsys.disabled():
        _passed(6, f"H and S pass the Hermitian storage invariants; S smallest "
                   f"eigenvalue {worst_eig:.2e} within the PSD floor at order 64")


def test_criterion_7_non_reproducible_declared(capsys):
    # Absolute multi-GPU speedups from the source hardware are out of scope;
    # the tiled executor emits an informational throughput report instead.
    p = generate(ProblemSpec(Dims(4, 8, 96), seed=9))
    out = build_hs(p, ExecPolicy(workers=4, tile=32))
    reports = summarize(out.ledger, peak_gflops=2600.0)
    assert any(r.section in ("S1", "S2", "H1") and r.gflops_per_s is not None
               for r in reports)
    large = [r for r in reports if r.section in ("S1", "S2", "H1", "H2", "H3")]
    rate = sum(r.flops for r in large) / max(sum(r.seconds for r in large), 1e-12) / 1e9
    with capsys.disabled():
        _passed(7, "hardware speedup tables declared non-reproducible; informational "
                   f"tiled throughput on this host: {rate:.2f} GFlops/s over the five "
                   "large updates (criteria 1-6 are the verification suite)")
