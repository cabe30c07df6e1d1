import collections
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsgen import kernels, native
from hsgen.kernels import (
    ExecPolicy,
    ExecResult,
    KernelKind,
    Tile,
    gemm,
    her2k,
    herk,
    plan_tiles,
    run_partitioned,
)
from hsgen.matcore import InputError, zeros

import oracles
from oracles import random_complex


def test_policy_validation():
    p = ExecPolicy()
    assert (p.workers, p.tile, p.engine) == (1, 256, "native")
    with pytest.raises(InputError):
        ExecPolicy(workers=0)
    with pytest.raises(InputError):
        ExecPolicy(tile=16)
    with pytest.raises(InputError, match="engine"):
        ExecPolicy(engine="blas")
    # an edge above the block grid is stored as the edge that runs
    assert ExecPolicy(tile=512).tile == kernels._BLOCK == 256
    assert ExecPolicy(tile=kernels._BLOCK - 1).tile == kernels._BLOCK - 1


@pytest.mark.parametrize("field", ["workers", "tile"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 64.5, "64", True])
def test_policy_rejects_non_integers_as_input_errors(field, value):
    with pytest.raises(InputError, match=field):
        ExecPolicy(**{field: value})


# ---------------------------------------------------------------------------
# tile planning


def test_plan_single_tile():
    tm = plan_tiles(4, 4, 4)
    assert list(tm) == [Tile(0, 4, 0, 4, False)]


def test_plan_triangular_example():
    tm = plan_tiles(4, 4, 2, triangular=True)
    assert list(tm) == [
        Tile(0, 2, 0, 2, True),
        Tile(2, 4, 0, 2, False),
        Tile(2, 4, 2, 4, True),
    ]


def test_plan_ragged_full():
    tm = plan_tiles(5, 3, 2)
    assert len(tm) == 6
    assert list(tm) == [
        Tile(0, 2, 0, 2, False),
        Tile(0, 2, 2, 3, False),
        Tile(2, 4, 0, 2, False),
        Tile(2, 4, 2, 3, False),
        Tile(4, 5, 0, 2, False),
        Tile(4, 5, 2, 3, False),
    ]


def test_plan_triangular_requires_square():
    with pytest.raises(InputError):
        plan_tiles(4, 6, 2, triangular=True)


@pytest.mark.parametrize("rows,cols,tile,triangular", [
    (7, 7, 3, False), (7, 7, 3, True), (12, 5, 4, False), (9, 9, 2, True),
])
def test_plan_covers_stored_region_exactly_once(rows, cols, tile, triangular):
    counts = np.zeros((rows, cols), dtype=int)
    for t in plan_tiles(rows, cols, tile, triangular):
        counts[t.row0 : t.row1, t.col0 : t.col1] += 1
    if triangular:
        expected = np.zeros((rows, cols), dtype=int)
        # stored region = every tile row down to the diagonal block column
        for t in plan_tiles(rows, cols, tile, triangular):
            expected[t.row0 : t.row1, t.col0 : t.col1] = 1
        assert np.array_equal(counts, expected)
        tl = np.tril_indices(rows)
        assert (counts[tl] == 1).all()
    else:
        assert (counts == 1).all()


# ---------------------------------------------------------------------------
# partitioned execution


def _policy(workers, tile=32):
    return ExecPolicy(workers=workers, tile=tile)


def test_degenerate_partition_equals_plain_kernel():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 12, 20)
    c1 = zeros(20, 20)
    c2 = zeros(20, 20)
    res = run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c1), _policy(1, tile=64))
    herk(1.0, a, 0.0, c2)
    assert isinstance(res, ExecResult)
    assert c1.tobytes() == c2.tobytes()


def test_herk_worker_invariance():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 64, 96)
    outs = []
    for workers in (1, 2, 4):
        c = zeros(96, 96)
        run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c), _policy(workers, tile=32))
        outs.append(c.tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_her2k_tiled_matches_serial_surrogate():
    # NaCl-shaped surrogate: tall stack, 256-column output
    rng = np.random.default_rng(4)
    z = random_complex(rng, 128, 256)
    b = random_complex(rng, 128, 256)
    c_tiled = zeros(256, 256)
    c_serial = zeros(256, 256)
    run_partitioned(KernelKind.HER2K, (1, z, b, 0, c_tiled), _policy(4, tile=64))
    her2k(1, z, b, 0, c_serial)
    assert c_tiled.tobytes() == c_serial.tobytes()


def test_tile_size_invariance():
    rng = np.random.default_rng(5)
    z = random_complex(rng, 16, 80)
    b = random_complex(rng, 16, 80)
    outs = []
    for tile in (32, 48, 128):
        c = zeros(80, 80)
        run_partitioned(KernelKind.HER2K, (0.5, z, b, 0.0, c), _policy(2, tile=tile))
        outs.append(c.tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_gemm_partitioned_matches_serial():
    rng = np.random.default_rng(6)
    a = random_complex(rng, 40, 9)
    b = random_complex(rng, 9, 55)
    c1 = random_complex(rng, 40, 55)
    c2 = c1.copy()
    run_partitioned(KernelKind.GEMM, (-0.75, "N", a, "N", b, 1, c1), _policy(3))
    gemm(-0.75, "N", a, "N", b, 1, c2)
    assert c1.tobytes() == c2.tobytes()


def test_gemm_partitioned_conjtrans_accumulate():
    rng = np.random.default_rng(7)
    a = random_complex(rng, 6, 40)
    x = random_complex(rng, 6, 40)
    c1 = random_complex(rng, 40, 40)
    c2 = c1.copy()
    run_partitioned(KernelKind.GEMM, (1, "C", a, "N", x, 1, c1), _policy(2))
    gemm(1, "C", a, "N", x, 1, c2)
    assert c1.tobytes() == c2.tobytes()


def test_herk_beta_accumulate_tiled():
    rng = np.random.default_rng(8)
    a = random_complex(rng, 10, 70)
    c1 = random_complex(rng, 70, 70)
    c2 = c1.copy()
    run_partitioned(KernelKind.HERK, (0.75, a, 1.0, c1), _policy(4))
    herk(0.75, a, 1.0, c2)
    assert c1.tobytes() == c2.tobytes()


def test_run_partitioned_reports_bytes_and_tiles():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 8, 64)
    c = zeros(64, 64)
    res = run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c), _policy(1, tile=32))
    assert res.n_tiles == 3  # 2x2 grid, strict upper tile dropped
    assert res.bytes_touched > 0


@pytest.mark.parametrize("kind, shape", [
    (KernelKind.GEMM, (0, 5)), (KernelKind.GEMM, (5, 0)), (KernelKind.HERK, (0, 0)),
], ids=["gemm-0x5", "gemm-5x0", "herk-0x0"])
def test_an_empty_output_plans_no_tile_as_the_public_kernels_do(kind, shape):
    c = zeros(*shape)
    if kind is KernelKind.GEMM:
        operands = (1, "C", zeros(3, shape[0]), "N", zeros(3, shape[1]), 0, c)
        assert gemm(*operands) is c
    else:
        operands = (1.0, zeros(3, 0), 0.0, c)
        assert herk(*operands) is c
    assert run_partitioned(kind, operands, _policy(2, tile=32)) == ExecResult(0, 0)


def test_run_partitioned_rejects_small_kernels():
    with pytest.raises(InputError):
        run_partitioned(KernelKind.POTRF, (zeros(2, 2),), _policy(1))


def _update(kind, alpha, beta, rng):
    """Operands of one update with a random output, for both engines."""
    c = random_complex(rng, 70, 70)
    if kind == "gemm_n":
        a, b = random_complex(rng, 70, 9), random_complex(rng, 9, 70)
        return KernelKind.GEMM, gemm, (alpha, "N", a, "N", b, beta, c)
    if kind == "gemm_c":
        a, b = random_complex(rng, 9, 70), random_complex(rng, 9, 70)
        return KernelKind.GEMM, gemm, (alpha, "C", a, "N", b, beta, c)
    if kind == "herk":
        return KernelKind.HERK, herk, (alpha.real, random_complex(rng, 9, 70), beta, c)
    z, b = random_complex(rng, 9, 70), random_complex(rng, 9, 70)
    return KernelKind.HER2K, her2k, (alpha, z, b, beta, c)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tile", [32, 128])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [0j, 1 + 0j, 0.5 - 1j])
@pytest.mark.parametrize("kind", ["gemm_n", "gemm_c", "herk", "her2k"])
def test_partitioned_equals_public_kernel(kind, alpha, beta, tile, workers):
    # tile 32 is ragged on the 70-wide output; tile 128 is the one-tile plan.
    # Both reject a zero or complex alpha or a beta other than 0 or 1 and
    # leave c as is.
    rng = np.random.default_rng(10)
    kk, kernel, ops = _update(kind, alpha, beta, rng)
    c_part, c_plain, before = ops[-1], ops[-1].copy(), ops[-1].tobytes()
    rejected = [_rejects(run_partitioned, kk, ops, _policy(workers, tile=tile)),
                _rejects(kernel, *ops[:-1], c_plain)]
    assert rejected == [ops[0] == 0 or np.imag(ops[0]) != 0 or beta not in (0, 1)] * 2
    assert c_part.tobytes() == c_plain.tobytes()
    assert not rejected[0] or c_part.tobytes() == before


def _rejects(fn, *args) -> bool:
    """Whether ``fn(*args)`` raises ``InputError``."""
    try:
        fn(*args)
    except InputError:
        return True
    return False


def _c(layout="complex128"):
    """A 3 x 3 output of ones: complex128, or one the engines cannot take."""
    if layout == "24-byte-stride":  # aligned to its parts, but not whole elements apart
        c = np.lib.stride_tricks.as_strided(np.zeros(14, dtype=np.complex128), (3, 3), (24, 72))
    else:
        c = np.zeros((3, 3), dtype=np.complex64 if layout == "complex64" else np.complex128)
    c[...] = 1 + 1j
    if layout == "read-only":
        c.flags.writeable = False
    return c


def _gemm_ops(alpha=1, opa="N", opb="N", beta=0, a=None, c="complex128"):
    return alpha, opa, zeros(3, 3) if a is None else a, opb, zeros(3, 3), beta, _c(c)


def _herk_ops(alpha=1, beta=0, c="complex128"):
    return alpha, zeros(2, 3), beta, _c(c)


def _her2k_ops(alpha=1, beta=0, c="complex128"):
    return alpha, zeros(2, 3), zeros(2, 3), beta, _c(c)


@pytest.mark.parametrize("kernel, kind, ops", [
    pytest.param(gemm, KernelKind.GEMM, _gemm_ops(opa="T"), id="gemm-opa-T"),
    pytest.param(gemm, KernelKind.GEMM, _gemm_ops(opb="C"), id="gemm-opb-C"),
    pytest.param(gemm, KernelKind.GEMM, _gemm_ops(opb="T"), id="gemm-opb-T"),
    pytest.param(gemm, KernelKind.GEMM, _gemm_ops(alpha=0.5 - 1j), id="gemm-alpha-complex"),
    pytest.param(her2k, KernelKind.HER2K, _her2k_ops(alpha=0.5 - 1j), id="her2k-alpha-complex"),
    pytest.param(gemm, KernelKind.GEMM, _gemm_ops(alpha=0, beta=1), id="gemm-alpha-0"),
    pytest.param(herk, KernelKind.HERK, _herk_ops(alpha=0.0), id="herk-alpha-0"),
    pytest.param(her2k, KernelKind.HER2K, _her2k_ops(alpha=0.0, beta=1), id="her2k-alpha-0"),
    pytest.param(gemm, KernelKind.GEMM, _gemm_ops(a=np.zeros((3, 3))), id="gemm-a-float64"),
    *(pytest.param(kernel, kind, make(c=layout), id=f"{kind.value}-c-{layout}")
      for layout in ("complex64", "24-byte-stride", "read-only")
      for kernel, kind, make in ((gemm, KernelKind.GEMM, _gemm_ops),
                                 (herk, KernelKind.HERK, _herk_ops))),
    *(pytest.param(kernel, kind, make(beta=beta), id=f"{kind.value}-beta-{beta}")
      for beta in (2, 0.5, 0.5 - 1j)
      for kernel, kind, make in ((gemm, KernelKind.GEMM, _gemm_ops),
                                 (herk, KernelKind.HERK, _herk_ops),
                                 (her2k, KernelKind.HER2K, _her2k_ops))),
])
def test_inputs_outside_the_product_contract_are_input_errors(kernel, kind, ops):
    # ops T, opb C, a zero or complex alpha, a beta other than 0 or 1, and
    # arrays other than aligned complex128 ones with whole-element strides
    # (c also writeable) are not part of the kernels' contract; the public
    # kernel and the executor reject them
    before = ops[-1].tobytes()
    with pytest.raises(InputError):
        kernel(*ops)
    with pytest.raises(InputError):
        run_partitioned(kind, ops, _policy(2, tile=32))
    assert ops[-1].tobytes() == before


# ---------------------------------------------------------------------------
# the fixed block grid that caps every tile, patched small so that small
# outputs cross many blocks


def _oracle_update(kind, ops):
    """The whole output as one tile of ``oracles.update_loops``."""
    conj_left = True
    if kind is KernelKind.GEMM:
        alpha, opa, a, _, b, beta, c = ops
        conj_left = opa == "C"
        terms = [(a.T, b) if conj_left else (a, b)]
    elif kind is KernelKind.HERK:
        alpha, a, beta, c = ops
        terms = [(a.T, a)]
    else:
        alpha, z, b, beta, c = ops
        terms = [(z.T, b), (b.T, z)]
    oracles.update_loops(terms, conj_left, alpha, beta, c, kind is not KernelKind.GEMM)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from([KernelKind.GEMM, KernelKind.HERK, KernelKind.HER2K]),
       rows=st.integers(1, 300), cols=st.integers(1, 300), k=st.integers(1, 3),
       tile=st.integers(32, 320), workers=st.integers(1, 3),
       beta=st.sampled_from([0.0, 1.0]), alpha=st.sampled_from([1, 0.5, -0.75]),
       opa=st.sampled_from("NC"), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("block", [32, 48])
def test_block_grid_matches_one_tile_kernel_and_oracle(
        block, kind, rows, cols, k, tile, workers, beta, alpha, opa, seed):
    rng = np.random.default_rng(seed)
    if kind is KernelKind.GEMM:
        a = random_complex(rng, *((rows, k) if opa == "N" else (k, rows)))
        b = random_complex(rng, k, cols)
        ops, kernel = (alpha, opa, a, "N", b, beta, random_complex(rng, rows, cols)), gemm
    elif kind is KernelKind.HERK:
        ops, kernel = (alpha, random_complex(rng, k, rows), beta,
                       random_complex(rng, rows, rows)), herk
    else:
        ops, kernel = (alpha, random_complex(rng, k, rows), random_complex(rng, k, rows),
                       beta, random_complex(rng, rows, rows)), her2k
    c_grid, c_kernel, c_oracle = ops[-1], ops[-1].copy(), ops[-1].copy()
    kernel(*ops[:-1], c_kernel)  # the unpatched public kernel
    _oracle_update(kind, ops[:-1] + (c_oracle,))
    with mock.patch.object(kernels, "_BLOCK", block):
        run_partitioned(kind, ops, ExecPolicy(workers=workers, tile=tile))
    assert c_grid.tobytes() == c_kernel.tobytes() == c_oracle.tobytes()


def _record_updates(monkeypatch, record):
    """Make every engine's per-tile update call ``record(terms, c)`` first."""
    for name in kernels.ENGINES:
        engine = kernels._engine(name)
        update = engine.tile_update
        monkeypatch.setattr(engine, "tile_update",
                            lambda terms, conj_left, alpha, beta, c, lower, update=update: (
                                record(terms, c) or update(terms, conj_left, alpha, beta, c, lower)))


@pytest.mark.parametrize("kind,terms", [(KernelKind.HERK, 1), (KernelKind.HER2K, 2)])
@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_upper_blocks_of_a_triangular_output_are_never_computed(monkeypatch, kind, terms, beta):
    # order 100 at tile 80 and block 32: tiles are the 32 grid, with rows
    # and columns cut at 32, 64 and 96, so 4 + 3 + 2 + 1 lower or diagonal tiles
    monkeypatch.setattr(kernels, "_BLOCK", 32)
    calls = []
    _record_updates(monkeypatch, lambda terms, c: calls.append(len(terms)))
    rng = np.random.default_rng(44)
    c = random_complex(rng, 100, 100)
    c[np.triu_indices(100, k=1)] = np.nan
    upper = c[np.triu_indices(100, k=1)].tobytes()
    z = random_complex(rng, 3, 100)
    ops = (1.0, z, beta, c) if kind is KernelKind.HERK else (1.0, z, z, beta, c)
    res = run_partitioned(kind, ops, _policy(2, tile=80))
    assert res.n_tiles == 10
    assert calls == [terms] * 10  # one update per tile, with every term
    assert c[np.triu_indices(100, k=1)].tobytes() == upper
    assert np.isfinite(np.tril(c)).all()


@pytest.mark.parametrize("alpha,panels", [(1.0, 2), (0.5, 2)])
def test_bytes_touched_counts_the_computed_blocks(monkeypatch, alpha, panels):
    # the tiles of the test above, (rows, cols) each; HER2K reads two
    # panels per tile whatever its alpha
    monkeypatch.setattr(kernels, "_BLOCK", 32)
    edges = (32, 32, 32, 4)
    blocks = [(h, edges[j]) for i, h in enumerate(edges) for j in range(i + 1)]
    k = 3
    rng = np.random.default_rng(45)
    z, b = random_complex(rng, k, 100), random_complex(rng, k, 100)
    res = run_partitioned(KernelKind.HER2K, (alpha, z, b, 1.0, zeros(100, 100)),
                          _policy(1, tile=80))
    assert res.n_tiles == len(blocks) == 10
    assert type(res.bytes_touched) is int  # reports serialize it as JSON
    assert res.bytes_touched == 16 * sum(h * w + panels * (h + w) * k for h, w in blocks)


@pytest.mark.parametrize("kind", [KernelKind.GEMM, KernelKind.HER2K])
def test_a_tile_above_the_block_edge_runs_as_blocks(monkeypatch, kind):
    shapes = []
    _record_updates(monkeypatch, lambda terms, c: shapes.append(c.shape))
    rng = np.random.default_rng(46)
    z, b = random_complex(rng, 2, 600), random_complex(rng, 2, 600)

    def run(tile):
        c = zeros(600, 600)
        ops = ((1, "C", z, "N", b, 0, c) if kind is KernelKind.GEMM
               else (1.0, z, b, 0.0, c))
        return run_partitioned(kind, ops, _policy(2, tile=tile)), c

    (big, c_big), (block, c_block) = run(512), run(kernels._BLOCK)
    assert max(max(s) for s in shapes) == kernels._BLOCK
    assert (big.n_tiles, big.bytes_touched) == (block.n_tiles, block.bytes_touched)
    assert c_big.tobytes() == c_block.tobytes()


# ---------------------------------------------------------------------------
# the shared queue: helpers of the process-wide pool plus the calling thread


@pytest.fixture
def fresh_pools(monkeypatch):
    """Pools made for one test alone, shut down after it."""
    pools = {}
    monkeypatch.setattr(kernels, "_pools", pools)
    yield pools
    for pool in pools.values():
        pool.shutdown()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_every_tile_runs_exactly_once_on_the_shared_queue(monkeypatch, workers):
    # more workers than this host's two cores and a short switch interval,
    # so that the helpers and the caller race for the queue
    rng = np.random.default_rng(47)
    z, b = random_complex(rng, 8, 200), random_complex(rng, 8, 200)
    serial = her2k(1.0, z, b, 0.0, zeros(200, 200)).tobytes()
    runs, lock = collections.Counter(), threading.Lock()

    def record(terms, c):
        with lock:
            runs[c.__array_interface__["data"][0]] += 1

    _record_updates(monkeypatch, record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            runs.clear()
            c = zeros(200, 200)
            res = run_partitioned(KernelKind.HER2K, (1.0, z, b, 0.0, c), _policy(workers))
            assert res.n_tiles == len(runs) == 28  # 7 block rows of a triangle
            assert set(runs.values()) == {1}
            assert c.tobytes() == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_a_failing_tile_surfaces_after_every_started_tile_returned(monkeypatch, raiser):
    # the caller's tiles wait until a helper has begun one, so both threads
    # run tiles; the first tile of the raiser's thread fails
    rng = np.random.default_rng(49)
    a = random_complex(rng, 4, 200)
    serial = herk(1.0, a, 0.0, zeros(200, 200)).tobytes()
    pool = kernels._pool(1)
    started, returned, failed = [], [], []
    lock, helper_began = threading.Lock(), threading.Event()

    def update(terms, conj_left, alpha, beta, c, lower):
        tile = c.__array_interface__["data"][0]
        on_helper = threading.current_thread() is not threading.main_thread()
        with lock:
            started.append(tile)
        try:
            if on_helper:
                helper_began.set()
            else:
                assert helper_began.wait(10)
            time.sleep(0.002)
            with lock:
                fail = on_helper == (raiser == "helper") and not failed
                if fail:
                    failed.append(tile)
            if fail:
                raise RuntimeError("tile failed")
        finally:
            with lock:
                returned.append(tile)

    monkeypatch.setattr(native, "tile_update", update)
    with pytest.raises(RuntimeError, match="tile failed"):
        run_partitioned(KernelKind.HERK, (1.0, a, 0.0, zeros(200, 200)), _policy(2))
    assert len(failed) == 1 and sorted(returned) == sorted(started)
    assert len(set(started)) == len(started)  # no tile ran twice
    monkeypatch.undo()
    c = zeros(200, 200)
    run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c), _policy(2))
    assert kernels._pool(1) is pool
    assert c.tobytes() == serial


def test_workers_share_only_as_many_tiles_as_there_are(monkeypatch, fresh_pools):
    # one worker makes no pool; a 3-tile update at four workers submits
    # two helpers, so at most two threads start, though every tile takes
    # long enough that no helper is idle when the next is submitted
    _record_updates(monkeypatch, lambda terms, c: time.sleep(0.02))
    a = random_complex(np.random.default_rng(50), 4, 64)
    c1, c4 = zeros(64, 64), zeros(64, 64)
    run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c1), _policy(1))
    kernels.mirror([c1], 1)
    assert fresh_pools == {}
    threads = threading.active_count()
    res = run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c4), _policy(4))
    assert res.n_tiles == 3 and list(fresh_pools) == [3]
    assert 1 <= threading.active_count() - threads <= 2
    kernels.mirror([c4], 4)
    assert c1.tobytes() == c4.tobytes()


_FORK_CHILD = """
import os
import sys
import threading

import numpy as np
from hsgen.kernels import ExecPolicy, KernelKind, run_partitioned

rng = np.random.default_rng(51)
a = np.asfortranarray(rng.standard_normal((8, 96)) + 1j * rng.standard_normal((8, 96)))


def update():
    c = np.zeros((96, 96), dtype=complex, order="F")
    run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c), ExecPolicy(workers=2, tile=32))
    return c.tobytes()


before = update()
pid = os.fork()
if pid == 0:
    threads = threading.active_count()
    same = update() == before
    # a helper of the child's own: the parent's did not survive the fork
    sys.exit(0 if same and threading.active_count() == threads + 1 else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_updates_on_a_pool_of_its_own():
    # the fork happens in a child interpreter, never in the test process
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(kernels.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _FORK_CHILD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_executor_module_is_two_names_of_kernels():
    # the benchmark imports ExecPolicy from hsgen.executor and traces
    # executor.run_partitioned, which only traces the builder's calls if it
    # is the kernels function itself
    from hsgen import executor

    assert {name for name in vars(executor) if not name.startswith("_")} == {
        "ExecPolicy", "run_partitioned"}
    assert executor.ExecPolicy is kernels.ExecPolicy
    assert executor.run_partitioned is kernels.run_partitioned
