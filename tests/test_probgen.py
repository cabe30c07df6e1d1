import numpy as np
import pytest

from hsgen.kernels import potrf_lower
from hsgen.matcore import Dims, InputError, InvariantError
from hsgen.probgen import (
    EIGENVALUE_RANGE,
    KMAX_VALUES,
    PRESET_NAMES,
    ProblemSpec,
    generate,
    preset_dims,
    validate_instance,
)

TABLE1 = {
    ("NaCl", 2.5): (512, 49, 2256),
    ("NaCl", 3.0): (512, 49, 3893),
    ("NaCl", 3.5): (512, 49, 6217),
    ("NaCl", 4.0): (512, 49, 9273),
    ("AuAg", 2.5): (108, 121, 3275),
    ("AuAg", 3.0): (108, 121, 5638),
    ("AuAg", 3.5): (108, 121, 8970),
    ("AuAg", 4.0): (108, 121, 13379),
}


@pytest.mark.parametrize("key,expected", sorted(TABLE1.items()))
def test_preset_dims_rows(key, expected):
    d = preset_dims(*key)
    assert (d.n_atoms, d.n_l, d.n_g) == expected


def test_presets_cover_all_rows():
    dims = {(name, k): preset_dims(name, k) for name in PRESET_NAMES for k in KMAX_VALUES}
    seen = {key: (d.n_atoms, d.n_l, d.n_g) for key, d in dims.items()}
    assert seen == TABLE1


def test_preset_dims_rejects_unknown():
    with pytest.raises(InputError, match="NaCl"):
        preset_dims("KCl", 4.0)
    with pytest.raises(InputError, match="2.5"):
        preset_dims("NaCl", 1.0)


def test_spec_validation():
    d = Dims(2, 3, 4)
    for seed in (-1, 1.5, 2**64, float("nan"), float("inf"), "3", None):
        with pytest.raises(InputError):
            ProblemSpec(d, seed=seed)
    for fraction in (1.5, -0.5, float("nan"), "0.5", None, 0.5j):
        with pytest.raises(InputError):
            ProblemSpec(d, nonhpd_fraction=fraction)
    spec = ProblemSpec(d, seed=3.0)
    assert spec.seed == 3 and type(spec.seed) is int
    assert ProblemSpec(d, seed=2**64 - 1).seed == 2**64 - 1


def _instances_equal(p, q):
    for name in ("a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb", "u_norms"):
        for x, y in zip(getattr(p, name), getattr(q, name)):
            if x.tobytes() != y.tobytes():
                return False
    return True


def test_generate_deterministic():
    spec = ProblemSpec(Dims(3, 4, 5), seed=42, nonhpd_fraction=0.5)
    assert _instances_equal(generate(spec), generate(spec))


def test_generate_seed_changes_instance():
    d = Dims(2, 3, 4)
    p = generate(ProblemSpec(d, seed=1))
    q = generate(ProblemSpec(d, seed=2))
    assert not _instances_equal(p, q)


def test_generated_instance_passes_invariants():
    for seed in range(5):
        spec = ProblemSpec(Dims(3, 5, 7), seed=seed, nonhpd_fraction=0.4)
        validate_instance(generate(spec))


def test_nonhpd_fraction_zero_all_factor():
    p = generate(ProblemSpec(Dims(5, 6, 4), seed=3, nonhpd_fraction=0.0))
    for t in p.t_aa:
        _, info = potrf_lower(t)
        assert info == 0


def test_nonhpd_fraction_one_all_fail():
    p = generate(ProblemSpec(Dims(5, 6, 4), seed=4, nonhpd_fraction=1.0))
    for t in p.t_aa:
        factor, info = potrf_lower(t)
        assert factor is None and info >= 1


def test_nonhpd_split_counts_round():
    p = generate(ProblemSpec(Dims(4, 3, 4), seed=5, nonhpd_fraction=0.5))
    fails = sum(potrf_lower(t)[0] is None for t in p.t_aa)
    assert fails == 2


def test_hpd_nonhpd_property_sweep():
    # 100 trials split across seeds and orders up to 64
    rng = np.random.default_rng(99)
    trials = 0
    for seed in range(10):
        n_l = int(rng.integers(2, 65))
        spec = ProblemSpec(Dims(10, n_l, 3), seed=seed, nonhpd_fraction=0.5)
        p = generate(spec)
        fails = [potrf_lower(t)[0] is None for t in p.t_aa]
        assert sum(fails) == 5
        trials += len(fails)
    assert trials == 100


def test_eigenvalue_ranges_respected():
    lo, hi = EIGENVALUE_RANGE
    spec = ProblemSpec(Dims(6, 8, 3), seed=7, nonhpd_fraction=0.5)
    p = generate(spec)
    n_fail = 0
    for t in p.t_aa:
        eigs = np.linalg.eigvalsh(t)
        if eigs[0] < 0:
            n_fail += 1
            assert -0.1 - 1e-9 <= eigs[0] <= -0.01 + 1e-9
            assert eigs[1] >= lo - 1e-9
        else:
            assert eigs[0] >= lo - 1e-9
        assert eigs[-1] <= hi + 1e-9
    assert n_fail == 3
    for t in p.t_bb:
        eigs = np.linalg.eigvalsh(t)
        assert eigs[0] >= lo - 1e-9 and eigs[-1] <= hi + 1e-9


def test_u_norms_positive_and_in_range():
    p = generate(ProblemSpec(Dims(4, 9, 2), seed=8))
    for u in p.u_norms:
        assert (u > 0).all() and (u >= 0.5).all() and (u <= 1.5).all()


def test_validate_instance_catches_corruption():
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=9))
    p.t_aa[1][0, 2] += 1.0  # break hermiticity
    with pytest.raises(InvariantError, match="t_aa"):
        validate_instance(p)

    q = generate(ProblemSpec(Dims(2, 3, 4), seed=9))
    q.u_norms[0][1] = 0.0
    with pytest.raises(InvariantError, match="u_norms"):
        validate_instance(q)

    r = generate(ProblemSpec(Dims(2, 3, 4), seed=9))
    r.a_blocks = r.a_blocks[:, :, :2]
    with pytest.raises(InvariantError, match="a_blocks"):
        validate_instance(r)
