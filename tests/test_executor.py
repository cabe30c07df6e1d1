import numpy as np
import pytest

from hsgen.executor import ExecPolicy, ExecResult, Tile, plan_tiles, run_partitioned
from hsgen.kernels import KernelKind, gemm, her2k, herk
from hsgen.matcore import InputError, zeros

from oracles import random_complex


def test_policy_validation():
    p = ExecPolicy()
    assert (p.workers, p.tile) == (1, 512)
    with pytest.raises(InputError):
        ExecPolicy(workers=0)
    with pytest.raises(InputError):
        ExecPolicy(tile=16)


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
        run_partitioned(KernelKind.HER2K, (0.5 - 1j, z, b, 0.0, c), _policy(2, tile=tile))
        outs.append(c.tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_gemm_partitioned_matches_serial():
    rng = np.random.default_rng(6)
    a = random_complex(rng, 40, 9)
    b = random_complex(rng, 9, 55)
    c1 = random_complex(rng, 40, 55)
    c2 = c1.copy()
    run_partitioned(KernelKind.GEMM, (1.5 - 0.5j, "N", a, "N", b, 0.25, c1), _policy(3))
    gemm(1.5 - 0.5j, "N", a, "N", b, 0.25, c2)
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
    run_partitioned(KernelKind.HERK, (0.75, a, 2.0, c1), _policy(4))
    herk(0.75, a, 2.0, c2)
    assert c1.tobytes() == c2.tobytes()


def test_run_partitioned_reports_bytes_and_tiles():
    rng = np.random.default_rng(9)
    a = random_complex(rng, 8, 64)
    c = zeros(64, 64)
    res = run_partitioned(KernelKind.HERK, (1.0, a, 0.0, c), _policy(1, tile=32))
    assert res.n_tiles == 3  # 2x2 grid, strict upper tile dropped
    assert res.bytes_touched > 0
    assert res.seconds >= 0.0


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
    # tile 32 is ragged on the 70-wide output; tile 128 is the one-tile plan
    rng = np.random.default_rng(10)
    kk, kernel, ops = _update(kind, alpha, beta, rng)
    c_part, c_plain = ops[-1], ops[-1].copy()
    run_partitioned(kk, ops, _policy(workers, tile=tile))
    kernel(*ops[:-1], c_plain)
    assert c_part.tobytes() == c_plain.tobytes()
