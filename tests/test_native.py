"""The native engine: bit-identical to the numpy engine and the complex
rank-1 oracle, built on first use into a cache, never a silent fallback."""

import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgen import cli, kernels, native
from hsgen.matcore import DimensionError, Dims, InputError, zeros
from hsgen.probgen import ProblemSpec, generate
from hsgen.storage import save_instance

import oracles

_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _draw(rng, shape, special):
    """Complex Gaussian parts, each replaced with probability ``special``
    by a signed zero, an infinity or NaN."""
    parts = rng.standard_normal((2, *shape))
    hit = rng.random(parts.shape) < special
    parts[hit] = rng.choice(_SPECIAL, hit.sum())
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = parts  # re + 1j*im would turn an infinite im into a NaN real part
    return z


def _left(rng, m, k, layout, special):
    """An m x k left operand as the executor passes it: a transposed view
    (HERK, HER2K, GEMM's C op), a strided slice of a larger array, or
    Fortran order."""
    if layout == "transposed":
        return _draw(rng, (k, m), special).T
    if layout == "sliced":
        return _draw(rng, (2 * m + 1, k + 3), special)[1::2, 2 : k + 2]
    return np.asfortranarray(_draw(rng, (m, k), special))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(m=st.integers(1, 300), n=st.integers(1, 300), k=st.integers(1, 300),
       conj_left=st.booleans(), layout=st.sampled_from(["transposed", "sliced", "fortran"]),
       right_sliced=st.booleans(), special=st.sampled_from([0.0, 0.002, 0.02]),
       seed=st.integers(0, 2**16))
def test_native_equals_numpy_engine_and_oracle_bitwise(
        m, n, k, conj_left, layout, right_sliced, special, seed):
    # k runs above and below native.KC, m and n cut ragged register tiles,
    # and at k = 100 a special part touches about one output in two
    rng = np.random.default_rng(seed)
    a = _left(rng, m, k, layout, special)
    b = _draw(rng, (k, 2 * n), special)[:, ::-2] if right_sliced else _draw(rng, (k, n), special)
    with np.errstate(invalid="ignore", over="ignore"):
        got = native.product()(a, b, conj_left)
        engine = kernels._acc_product(a, b, conj_left)
        expected = oracles.acc_product_rank1(np.conj(a) if conj_left else a, b)
    assert got.flags.f_contiguous and got.shape == (m, n)
    canonical = oracles.canonical_nans  # NaN positions only, not sign or payload
    assert canonical(got).tobytes() == canonical(engine).tobytes() == canonical(expected).tobytes()


def test_an_empty_inner_dimension_gives_positive_zeros():
    a, b = zeros(5, 0), zeros(0, 3)
    got = native.product()(a, b, True)
    assert got.tobytes() == kernels._acc_product(a, b, True).tobytes() == zeros(5, 3).tobytes()


def test_operands_that_do_not_multiply_are_dimension_errors():
    with pytest.raises(DimensionError):
        native.product()(zeros(3, 4), zeros(5, 2), False)


def test_an_unknown_engine_is_an_input_error():
    c = zeros(2, 2)
    with pytest.raises(InputError, match="blas"):
        kernels.herk(1.0, zeros(3, 2), 0, c, engine="blas")


# ---------------------------------------------------------------------------
# building, caching and failing


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """An unloaded engine that builds into an empty cache under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_kernel", None)
    return tmp_path / "cache" / "hsgen"


def _recorded_subprocesses(monkeypatch):
    calls = []
    real = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: calls.append(argv) or real(argv, **kw))
    return calls


def test_a_second_load_reuses_the_cached_library(monkeypatch, fresh_native):
    calls = _recorded_subprocesses(monkeypatch)
    native.product()
    assert len(calls) == 2 and calls[0][1:] == ["--version"]  # the key, then the build
    (library,) = fresh_native.iterdir()
    assert library.suffix == ".so"
    calls.clear()
    native.product()  # loaded in this process: nothing runs
    assert calls == []
    monkeypatch.setattr(native, "_kernel", None)
    native.product()  # a new process: only the key's `cc --version` runs
    assert [argv[1:] for argv in calls] == [["--version"]]
    assert list(fresh_native.iterdir()) == [library]


def test_a_failing_compile_is_an_input_error_with_its_stderr(monkeypatch, fresh_native, tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("#error hsgen-broken-source\n")
    monkeypatch.setattr(native, "_SOURCE", source)
    with pytest.raises(InputError, match="hsgen-broken-source") as exc:
        native.product()
    assert "'cc'" in str(exc.value) and "--engine numpy" in str(exc.value)
    assert not fresh_native.exists() or list(fresh_native.iterdir()) == []  # no temporary left


def test_run_without_the_compiler_exits_2_and_names_it(monkeypatch, fresh_native, tmp_path, capsys):
    inst = tmp_path / "inst"
    save_instance(generate(ProblemSpec(Dims(2, 3, 8), seed=5)), inst)
    monkeypatch.setattr(native, "_COMPILER", "hsgen-missing-cc")
    assert cli.main(["run", "--in", str(inst)]) == 2
    err = capsys.readouterr().err
    assert "hsgen-missing-cc" in err and "--engine numpy" in err
    assert not (inst / "H.hsm").exists()
    assert cli.main(["run", "--in", str(inst), "--engine", "numpy"]) == 0  # no compiler needed
