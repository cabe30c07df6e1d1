"""The native engine: bit-identical to the numpy engine and the complex
rank-1 oracle, built on first use into a cache, never a silent fallback."""

import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsgen import cli, kernels, native
from hsgen.matcore import DimensionError, Dims, InputError, zeros
from hsgen.probgen import ProblemSpec, generate
from hsgen.storage import save_instance

import oracles

_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])

#: A NaN with a payload no arithmetic here produces: bytes of it that
#: change were written.
_GUARD = np.array([0xFFF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]


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
    # GEMM's product alone (alpha 1, beta 0) under both engines: k runs
    # above and below the deepest k-block (64), m and n cut ragged register
    # tiles and cross the 256 block grid, and at k = 100 a special part
    # touches about one output in two
    rng = np.random.default_rng(seed)
    a = _left(rng, m, k, layout, special)
    b = _draw(rng, (k, 2 * n), special)[:, ::-2] if right_sliced else _draw(rng, (k, n), special)
    opa, op_a = ("C", a.T) if conj_left else ("N", a)
    canonical = oracles.canonical_nans  # NaN positions only, not sign or payload
    with np.errstate(invalid="ignore", over="ignore"):
        outputs = [canonical(oracles.acc_product_rank1(np.conj(a) if conj_left else a, b))]
        for engine in kernels.ENGINES:
            c = np.full((m, n), complex(_GUARD, _GUARD), order="F")  # beta 0 never reads c
            kernels.gemm(1, opa, op_a, "N", b, 0, c, engine)
            outputs.append(canonical(c))
    assert outputs[0].tobytes() == outputs[1].tobytes() == outputs[2].tobytes()


def _view(big, layout, m, n):
    """An m x n view into the Fortran-ordered ``big``: a block, every other
    row and column, or the transpose of a block (C order)."""
    if layout == "block":
        return big[2 : m + 2, 3 : n + 3]
    if layout == "strided":
        return big[1 : 2 * m + 1 : 2, 2 : 2 * n + 2 : 2]
    return big[3 : n + 3, 2 : m + 2].T


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(m=st.integers(1, 40), n=st.integers(1, 40), k=st.integers(0, 150),
       nterms=st.sampled_from([1, 2]), alpha=st.sampled_from([1.0, 0.5, -0.75]),
       beta=st.sampled_from([0, 1]), lower=st.booleans(), conj_left=st.booleans(),
       c_layout=st.sampled_from(["block", "strided", "transposed"]),
       special=st.sampled_from([0.0, 0.02, 0.1]), seed=st.integers(0, 2**16))
# a 128 tile's block depth is 64: two terms of k = 40 join into K = 80,
# which spans two blocks while neither term does; and two empty terms
@example(m=128, n=128, k=40, nterms=2, alpha=0.5, beta=1, lower=True, conj_left=True,
         c_layout="strided", special=0.02, seed=1)
@example(m=5, n=7, k=0, nterms=2, alpha=-0.75, beta=1, lower=False, conj_left=False,
         c_layout="block", special=0.0, seed=2)
def test_tile_update_equals_numpy_engine_and_oracle_bitwise(
        m, n, k, nterms, alpha, beta, lower, conj_left, c_layout, special, seed):
    # the joined inner dimension runs on both sides of the block depth (at
    # most 64, less on small tiles); c is a view into a guard-filled array,
    # and only its stored region (rows >= columns when lower) may change
    rng = np.random.default_rng(seed)
    n = m if lower else n
    terms = [(_draw(rng, (k, m), special).T, _draw(rng, (k, n), special))
             for _ in range(nterms)]
    stored = np.tril(np.ones((m, n), dtype=bool)) if lower else np.ones((m, n), dtype=bool)
    values = _draw(rng, (m, n), special)[stored]
    results = []
    native.load()
    for update in (native.tile_update, kernels._numpy_update, oracles.update_loops):
        edge = 2 * max(m, n) + 4
        big = np.full((edge, edge), complex(_GUARD, _GUARD), order="F")
        c = _view(big, c_layout, m, n)
        c[stored] = values
        mask = np.zeros(big.shape, dtype=bool, order="F")
        _view(mask, c_layout, m, n)[stored] = True
        before = big.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            update(terms, conj_left, alpha, beta, c, lower)
        assert big[~mask].tobytes() == before[~mask].tobytes()  # every other byte unchanged
        results.append(oracles.canonical_nans(c).tobytes())  # NaN positions, not payloads
    assert results[0] == results[1] == results[2]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(m=st.integers(1, 40), n=st.integers(1, 40), k=st.integers(0, 150),
       nterms=st.sampled_from([1, 2]), lower=st.booleans(), seed=st.integers(0, 2**16))
@example(m=128, n=128, k=40, nterms=2, lower=True, seed=3)  # K spans a block, no term does
@example(m=5, n=7, k=0, nterms=2, lower=False, seed=4)
def test_tile_update_stays_inside_tile_scratch(m, n, k, nterms, lower, seed):
    # the foreign call itself, with exactly tile_scratch doubles of
    # guard-filled scratch and a guard after them: the joined inner
    # dimension runs on both sides of the block depth, and the guard must
    # stay untouched
    rng = np.random.default_rng(seed)
    n = m if lower else n
    terms = [(_draw(rng, (k, m), 0.0).T, _draw(rng, (k, n), 0.0)) for _ in range(nterms)]
    native.load()
    size = native._lib.tile_scratch(m, n, k, nterms)
    scratch = np.full(size + 64, _GUARD)
    c, expected = zeros(m, n), zeros(m, n)
    args = [x for term in terms for v in term for x in (native._address(v), *native._strides(v))]
    native._lib.tile_update(m, n, k, nterms, *(args * 2)[:12], True, 0.5, 0, int(lower),
                            native._address(c), *native._strides(c), native._address(scratch))
    assert scratch[size:].tobytes() == np.full(64, _GUARD).tobytes()
    kernels._numpy_update(terms, True, 0.5, 0, expected, lower)
    assert c.tobytes() == expected.tobytes()  # and no unwritten scratch was read


def test_a_joined_inner_dimension_within_one_block_keeps_no_plane_pair():
    # HER2K at k = 8 on a 256 tile joins K = 16, one k-block: the scratch
    # is the left pack (2*16*256 doubles) and the right pack (2*16*NR,
    # NR = 4) only, with no plane pair of 2*256*256
    native.load()
    assert native._lib.tile_scratch(256, 256, 8, 2) == 2 * 16 * (256 + 4)


def test_an_empty_inner_dimension_gives_positive_zeros():
    for engine in kernels.ENGINES:
        c = np.full((5, 3), complex(_GUARD, _GUARD), order="F")
        kernels.gemm(1, "C", zeros(0, 5), "N", zeros(0, 3), 0, c, engine)
        assert c.tobytes() == zeros(5, 3).tobytes()


def test_operands_that_do_not_multiply_are_dimension_errors():
    with pytest.raises(DimensionError):
        kernels.gemm(1, "N", zeros(3, 4), "N", zeros(5, 2), 0, zeros(3, 2), "native")


def test_an_unknown_engine_is_an_input_error():
    c = zeros(2, 2)
    with pytest.raises(InputError, match="blas"):
        kernels.herk(1.0, zeros(3, 2), 0, c, engine="blas")


# ---------------------------------------------------------------------------
# the per-atom loops: POTRF, HEMM, TRMM and the chunk calls


def _plant_zeros(rng, x, share=0.2):
    """x with about ``share`` of its parts replaced by +0.0 and as many by -0.0."""
    for part in (x.real, x.imag):
        part[rng.random(part.shape) < share] = 0.0
        part[rng.random(part.shape) < share] = -0.0
    return x


def _coupling(rng, n, kind):
    """An n x n block of the given kind for POTRF, with junk above its
    diagonal (which POTRF never reads)."""
    eigs = rng.uniform(0.5, 2.0, n)
    if kind == "near-singular":
        eigs[rng.integers(n)] = 1e-15
    if kind == "non-hpd":
        eigs[rng.integers(n)] = -rng.uniform(0.01, 0.5)
    t = oracles.random_hermitian(rng, n, eigs)
    if kind in ("diagonal", "block-diagonal"):
        off = np.tril(np.ones((n, n), dtype=bool), -1)
        if kind == "block-diagonal":  # two Hermitian blocks, nothing between
            h = n // 2
            off[:h, :h] = off[h:, h:] = False
        t.real[off] = rng.choice([0.0, -0.0], off.sum())
        t.imag[off] = rng.choice([0.0, -0.0], off.sum())
        t[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
    t[np.triu_indices(n, 1)] = oracles.random_complex(rng, n, n)[np.triu_indices(n, 1)]
    return t


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 7, 8, 9, 49, 65]),
       kind=st.sampled_from(["hpd", "near-singular", "non-hpd", "diagonal", "block-diagonal"]),
       seed=st.integers(0, 2**16))
def test_potrf_is_the_same_on_both_engines_bitwise(n, kind, seed):
    # the failure index, and the factor's bytes if there is one; the
    # routing call agrees
    t = _coupling(np.random.default_rng(seed), n, kind)
    factors = {e: zeros(n, n) for e in kernels.ENGINES}
    infos = {e: kernels._engine(e).potrf_atoms(t[None], factors[e])[0][0] for e in factors}
    assert infos["native"] == infos["numpy"]
    if infos["numpy"] == 0:
        assert factors["native"].tobytes() == factors["numpy"].tobytes()
    (routed,), _ = kernels.potrf_route(np.ascontiguousarray(t[None]), "native")
    assert routed == infos["native"]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(n=st.sampled_from([1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70]), m=st.integers(1, 300),
       kind=st.sampled_from(["hpd", "diagonal", "block-diagonal"]), seed=st.integers(0, 2**16))
@example(n=260, m=5, kind="hpd", seed=1)  # the factor spans two row tiles of 256
def test_trmm_is_the_same_on_both_engines_bitwise(n, m, kind, seed):
    # every atom is routed to TRMM: native Loop 2 skips each row's zeros
    # before the diagonal of C^H, the numpy engine multiplies them, and the
    # signed zeros that leaves must not show
    rng = np.random.default_rng(seed)
    t_aa = np.stack([_coupling(rng, n, kind) for _ in range(2)])
    a = np.stack([_plant_zeros(rng, oracles.random_complex(rng, n, m)) for _ in range(2)])
    info, _ = kernels.potrf_route(t_aa, "native")
    assert (info == 0).all()
    outputs = []
    for engine in kernels.ENGINES:
        y, x = (np.full((2 * n, m), complex(_GUARD, _GUARD), order="F") for _ in range(2))
        kernels.loop2(info, t_aa, a, y, x, engine)
        outputs.append((y.tobytes(), x.tobytes()))
    assert outputs[0] == outputs[1]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 70), m=st.integers(1, 300), count=st.integers(1, 2),
       seed=st.integers(0, 2**16))
def test_hemm_is_the_same_on_both_engines_bitwise(n, m, count, seed):
    # Loop 1's Z rows (its HEMM adds onto the GEMM's rows) and Loop 2's X
    # slots, every atom routed to HEMM: T_bb and T_aa have nonzero
    # diagonal imaginary parts and junk above the diagonal, which both drop
    rng = np.random.default_rng(seed)

    def stack(cols):
        return np.stack([_plant_zeros(rng, oracles.random_complex(rng, n, cols), 0.05)
                         for _ in range(count)])

    t_ab, t_bb, t_aa, a, b = stack(n), stack(n), stack(n), stack(m), stack(m)
    for t in (t_bb, t_aa):
        t.imag[:, np.arange(n), np.arange(n)] = rng.uniform(0.5, 1.0, (count, n))
    outputs = []
    for engine in kernels.ENGINES:
        z, y, x = (np.full((count * n, m), complex(_GUARD, _GUARD), order="F") for _ in range(3))
        kernels.loop1(t_ab, a, t_bb, b, z, engine)
        kernels.loop2(np.ones(count, dtype=np.intc), t_aa, a, y, x, engine)
        outputs.append((z.tobytes(), y.tobytes(), x.tobytes()))
    assert outputs[0] == outputs[1]


def _chunk_case(count, n_l, n_g, fraction, seed):
    """A chunk's stacks, and guard-filled Fortran buffers of count*n_l rows."""
    p = generate(ProblemSpec(Dims(count, n_l, n_g), seed=seed, nonhpd_fraction=fraction))
    def guard():
        return np.full((count * n_l, n_g), complex(_GUARD, _GUARD), order="F")
    return p, guard


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(count=st.integers(1, 5), n_l=st.sampled_from([1, 7, 8, 9, 49]), n_g=st.integers(1, 300),
       fraction=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**16))
def test_the_chunk_calls_are_the_same_on_both_engines_bitwise(count, n_l, n_g, fraction, seed):
    # Loop 1 writes every row; Loop 2 fills Y and X slots in atom order and
    # leaves the rows past the last slot as they were
    p, guard = _chunk_case(count, n_l, n_g, fraction, seed)
    outputs = []
    for engine in kernels.ENGINES:
        z = guard()
        seconds = kernels.loop1(p.t_ab, p.a_blocks, p.t_bb, p.b_blocks, z, engine)
        assert seconds.shape == (count, 2) and (seconds >= 0).all()
        info, _ = kernels.potrf_route(p.t_aa, engine)
        y, x = guard(), guard()
        seconds = kernels.loop2(info, p.t_aa, p.a_blocks, y, x, engine)
        assert seconds.shape == (count, 2) and (seconds[info != 0, 0] == 0).all()
        used_y, used_x = n_l * (info == 0).sum(), n_l * (info != 0).sum()
        assert y[used_y:].tobytes() == guard()[used_y:].tobytes()
        assert x[used_x:].tobytes() == guard()[used_x:].tobytes()
        outputs.append((z.tobytes(), info.tolist(), y.tobytes(), x.tobytes()))
    assert outputs[0] == outputs[1]


def test_both_engines_route_a_mixed_chunk_identically():
    p = generate(ProblemSpec(Dims(8, 9, 4), seed=40, nonhpd_fraction=0.5))
    routes = [kernels.potrf_route(p.t_aa, engine)[0].tolist() for engine in kernels.ENGINES]
    assert routes[0] == routes[1]
    assert sum(code == 0 for code in routes[0]) == 4  # four atoms of each kind


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(count=st.integers(1, 3), n_l=st.sampled_from([1, 4, 8, 9, 49]), n_g=st.integers(1, 300),
       seed=st.integers(0, 2**16))
@example(count=2, n_l=4, n_g=257, seed=5)  # a ragged 1-column tile needs a plane pair
def test_the_chunk_calls_stay_inside_atoms_scratch(count, n_l, n_g, seed):
    # the foreign calls themselves, with exactly atoms_scratch doubles of
    # guard-filled scratch and a guard after them
    p, guard = _chunk_case(count, n_l, n_g, 0.5, seed)
    native.load()
    size = native._lib.atoms_scratch(n_l, n_g)

    def call(name, *args):
        scratch = np.full(size + 64, _GUARD)
        seconds = np.empty((count, 2))
        getattr(native._lib, name)(count, n_l, n_g, *args, native._address(seconds),
                                   native._address(scratch))
        assert scratch[size:].tobytes() == np.full(64, _GUARD).tobytes()

    z, want_z = guard(), guard()
    call("loop1_atoms", *native._stack(p.t_ab), *native._stack(p.a_blocks),
         *native._stack(p.t_bb), *native._stack(p.b_blocks), *native._slots(z, n_l))
    kernels.loop1(p.t_ab, p.a_blocks, p.t_bb, p.b_blocks, want_z, "numpy")
    assert z.tobytes() == want_z.tobytes()
    info, _ = kernels.potrf_route(p.t_aa, "numpy")
    y, x, want_y, want_x = guard(), guard(), guard(), guard()
    call("loop2_atoms", native._address(info), *native._stack(p.t_aa),
         *native._stack(p.a_blocks), *native._slots(y, n_l), *native._slots(x, n_l))
    kernels.loop2(info, p.t_aa, p.a_blocks, want_y, want_x, "numpy")
    assert y.tobytes() == want_y.tobytes() and x.tobytes() == want_x.tobytes()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 255, 256, 257, 768, 1000, 1536])
@pytest.mark.parametrize("engine", kernels.ENGINES)
def test_mirror_columns_equals_hermitian_mirror_bitwise(engine, n):
    # planted -0.0, infinities and NaN: a mirror only copies and flips
    # signs, so even NaN bytes are fixed; against the fancy-indexed oracle,
    # the whole range, a split one in any order, a row-major copy, and
    # views inside guard-filled buffers, which keep every byte outside the
    # view: column-major with padded columns, and strided both ways (up to
    # n 1000, where its buffer is 96 MB)
    rng = np.random.default_rng(n)
    m = np.asfortranarray(_draw(rng, (n, n), 0.05))
    expected = oracles.mirror_triu_indices(m).tobytes()
    fill = kernels._engine(engine).mirror_columns
    whole, split, rows = m.copy(order="F"), m.copy(order="F"), m.copy(order="C")
    fill(whole, 0, n)
    fill(rows, 0, n)
    cuts = sorted({0, n // 3, n // 2 + 1, n})
    for c0, c1 in reversed(list(zip(cuts, cuts[1:]))):
        fill(split, c0, c1)
    assert whole.tobytes() == split.tobytes() == rows.tobytes() == expected
    buffers = [((n + 3, n + 2), "F", np.s_[1:-2, 1:-1])]
    if n <= 1000:
        buffers.append(((2 * n + 1, 3 * n), "C", np.s_[1::2, ::3]))
    for shape, order, inside in buffers:
        buf = np.full(shape, _GUARD + 0j, order=order)
        buf[inside] = m
        outside = buf.copy(order="A")
        outside[inside] = 0
        fill(buf[inside], 0, n)
        assert buf[inside].tobytes() == expected
        buf[inside] = 0
        assert buf.tobytes() == outside.tobytes()


@pytest.mark.parametrize("c, error", [
    pytest.param(zeros(3, 4), DimensionError, id="not-square"),
    pytest.param(np.zeros((3, 3), dtype=np.complex64), InputError, id="complex64"),
    pytest.param(np.zeros((2, 3, 3), dtype=np.complex128), InputError, id="a-stack"),
    pytest.param(np.lib.stride_tricks.as_strided(zeros(1, 14), (3, 3), (24, 72)), InputError,
                 id="24-byte-stride"),
])
def test_mirror_rejects_what_the_engines_cannot_take(c, error):
    with pytest.raises(error):
        kernels.hermitian_mirror(zeros(2, 2), c)


# ---------------------------------------------------------------------------
# building, caching and failing


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """An unloaded engine that builds into an empty cache under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_lib", None)
    return tmp_path / "cache" / "hsgen"


def _recorded_subprocesses(monkeypatch):
    calls = []
    real = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: calls.append(argv) or real(argv, **kw))
    return calls


def test_a_second_load_reuses_the_cached_library(monkeypatch, fresh_native):
    calls = _recorded_subprocesses(monkeypatch)
    native.load()
    assert len(calls) == 2 and calls[0][1:] == ["--version"]  # the key, then the build
    (library,) = fresh_native.iterdir()
    assert library.suffix == ".so"
    calls.clear()
    native.load()  # loaded in this process: nothing runs
    assert calls == []
    monkeypatch.setattr(native, "_lib", None)
    native.load()  # a new process: only the key's `cc --version` runs
    assert [argv[1:] for argv in calls] == [["--version"]]
    assert list(fresh_native.iterdir()) == [library]


def test_a_failing_compile_is_an_input_error_with_its_stderr(monkeypatch, fresh_native, tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("#error hsgen-broken-source\n")
    monkeypatch.setattr(native, "_SOURCE", source)
    with pytest.raises(InputError, match="hsgen-broken-source") as exc:
        native.load()
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


#: Run in a child process with the shipped flags plus its arguments (the
#: undefined-behaviour build aborts on the first report): HER2K, HERK and
#: GEMM updates at inner dimensions on both sides of the block depth, POTRF
#: on both sides of the register tile (and a block that fails), and two
#: chunks of each per-atom loop with a mixed split, the second with
#: n_l = 260 (two row tiles of the 256 grid), and the Hermitian mirror of
#: a column-major and a row-major matrix below and above its 64-column
#: blocks and 256-column tasks, all checked bitwise against the numpy
#: engine.
_CHILD = """
import sys

import numpy as np
from hsgen import kernels, native
from hsgen.matcore import Dims
from hsgen.probgen import ProblemSpec, generate

native._FLAGS += tuple(sys.argv[1:])
rng = np.random.default_rng(9)
for k in (0, 1, 64, 65, 130):
    z, b = (np.asfortranarray(rng.standard_normal((k, 70)) + 1j * rng.standard_normal((k, 70)))
            for _ in range(2))
    for run in (lambda c, e: kernels.her2k(0.5, z, b, 1, c, e),
                lambda c, e: kernels.herk(1, z, 0, c, e),
                lambda c, e: kernels.gemm(-0.75, "C", z, "N", b[:, 3:], 1, c[:, 3:], e)):
        c0 = np.asfortranarray(rng.standard_normal((70, 70)) + 0j)
        native_c, numpy_c = c0.copy(order="F"), c0.copy(order="F")
        run(native_c, "native")
        run(numpy_c, "numpy")
        assert native_c.tobytes() == numpy_c.tobytes(), k
for n in (1, 8, 9, 49):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for t in (g @ g.conj().T + n * np.eye(n), g @ g.conj().T - n * np.eye(n)):
        outs = []
        for e in ("native", "numpy"):
            w = np.zeros((n, n), dtype=complex, order="F")
            (i,), _ = kernels._engine(e).potrf_atoms(t[None], w)
            outs.append((i, w.tobytes() if i == 0 else None))
        assert outs[0] == outs[1], n
for dims in (Dims(4, 9, 70), Dims(2, 260, 5)):
    p = generate(ProblemSpec(dims, seed=3, nonhpd_fraction=0.5))
    outs = []
    for e in ("native", "numpy"):
        z, y, x = (np.zeros((dims.n_atoms * dims.n_l, dims.n_g), dtype=complex, order="F")
                   for _ in range(3))
        kernels.loop1(p.t_ab, p.a_blocks, p.t_bb, p.b_blocks, z, e)
        info, _ = kernels.potrf_route(p.t_aa, e)
        kernels.loop2(info, p.t_aa, p.a_blocks, y, x, e)
        outs.append((z.tobytes(), info.tolist(), y.tobytes(), x.tobytes()))
    assert outs[0] == outs[1] and 0 < sum(outs[0][1]) and 0 in outs[0][1], dims
for n in (1, 70, 300, 768, 1000):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    outs = []
    for e in ("native", "numpy"):
        c, r = m.copy(order="F"), m.copy(order="C")
        kernels.hermitian_mirror(c, r, workers=2, engine=e)
        outs.append(c.tobytes() + r.tobytes())
    assert outs[0] == outs[1], n
print("clean")
"""


_ON_X86_64 = platform.machine() in ("x86_64", "AMD64") and shutil.which(native._COMPILER)

#: The /proc/cpuinfo flags each x86-64 microarchitecture level adds to the
#: one below it.
_LEVELS = {
    "x86-64": set(),
    "x86-64-v2": {"cx16", "lahf_lm", "popcnt", "pni", "sse4_1", "sse4_2", "ssse3"},
    "x86-64-v3": {"abm", "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "movbe", "xsave"},
    "x86-64-v4": {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"},
}


def _host_runs(level):
    """Whether this host's CPU flags cover ``level`` and every level below."""
    names = list(_LEVELS)
    need = set().union(*(_LEVELS[n] for n in names[: names.index(level) + 1]))
    return need <= set(native._cpu_flags().split())


@pytest.mark.skipif(not _ON_X86_64, reason="needs cc on x86-64")
@pytest.mark.parametrize("flags", [
    pytest.param(("-fsanitize=undefined", "-fno-sanitize-recover=all"), id="ubsan"),
    pytest.param(("-march=x86-64",), id="x86-64"),
    pytest.param(("-march=x86-64-v3",), id="x86-64-v3"),
])
def test_the_engine_matches_numpy_under_each_flag_set(tmp_path, flags):
    # the shipped flags plus the set (a later -march wins), built into a
    # cache under tmp_path (the flags are part of its key) and loaded in a
    # child: the undefined-behaviour build, and instruction-set levels
    # below the host's -march=native
    level = flags[0].removeprefix("-march=")
    if level in _LEVELS and not _host_runs(level):
        pytest.skip(f"this CPU cannot run {level} code")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([str(Path(native.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _CHILD, *flags], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0 and "runtime error" not in done.stderr, done.stderr
    assert done.stdout.strip() == "clean"
    assert len(list((tmp_path / "hsgen").glob("native-*.so"))) == 1


@pytest.mark.skipif(shutil.which(native._COMPILER) is None, reason="no C compiler")
def test_the_engine_compiles_without_warnings(tmp_path):
    # the shipped flags plus every common warning, made an error
    argv = [native._COMPILER, *native._FLAGS, "-Wall", "-Wextra", "-Werror",
            "-o", str(tmp_path / "native.so"), str(native._SOURCE)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(not _ON_X86_64, reason="needs cc on x86-64")
@pytest.mark.parametrize("level", [*_LEVELS, "native"])
def test_the_engine_emits_no_fused_multiply_add(tmp_path, level):
    # -ffp-contract=off does not stop GCC's vectorizer from pairing a
    # complex multiply-subtract into one vfmaddsub, which rounds once
    # instead of twice: the shipped flags' assembly has no FMA of any form
    # at any instruction-set level (a later -march wins; no code runs)
    asm = tmp_path / "native.s"
    argv = [native._COMPILER, *native._FLAGS, f"-march={level}", "-S", "-o", str(asm),
            str(native._SOURCE)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    fused = re.findall(r"\bvfn?m(?:add|sub)\w*", asm.read_text())
    assert fused == [], sorted(set(fused))
