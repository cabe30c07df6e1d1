"""Tests of the benchmark itself:  python3 -m pytest hsbench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bench
import checks
import hsgen.builder
from hsgen import build_hs, generate, ExecPolicy, ProblemSpec
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# tiny dims: 2x2 tiles of edge 32, both Cholesky branches, two workers
SMOKE = bench.Workload("smoke", 3, 4, 40, 1 / 3, 2, 32)


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    out = {}
    for trace in (False, True):
        s = bench.Session(SMOKE, seed=3, seconds=1, trace=trace,
                          workdir=tmp_path_factory.mktemp(f"trace{int(trace)}"))
        t0 = time.perf_counter()
        s.run()
        s.elapsed = time.perf_counter() - t0
        out[trace] = s
    return out


def test_smoke_run_finishes_in_seconds_without_failures(sessions):
    for s in sessions.values():
        assert s.elapsed < 20
        assert s.attempted > 0 and s.failed == 0 and s.correct


def test_printed_metrics_match_benchmark_json(sessions):
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        printed = sessions[trace].result()["metrics"]
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: m["unit"] for name, m in printed.items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in printed.values())


def test_traced_pass_records_every_partitioned_call_once(sessions):
    tr = sessions[True].tracer
    (build,) = tr.named("builder.build_hs")
    heavy = sum(n for sec, n in build.info["records"].items()
                if sec in ("S1", "S2", "H1", "H2", "H3"))
    spans = tr.named("executor.run_partitioned")
    assert len(spans) == heavy == 5
    # n_g=40 at tile 32: 3 lower-triangle tiles per rank-k update, 4 for the gemm
    assert sorted(s.info["tiles"] for s in spans) == [3, 3, 3, 3, 4]
    assert sessions[True].metrics["executor.tiles"] == 16


def test_sections_plus_unaccounted_equal_traced_build_wall(sessions):
    s = sessions[True]
    (build,) = s.tracer.named("builder.build_hs")
    parts = [v for k, v in s.metrics.items() if k.startswith("builder.") and k.endswith("_s")]
    assert len(parts) == 9
    assert sum(parts) == pytest.approx(build.seconds, rel=0, abs=1e-9)


def test_tracer_reports_absent_names_and_restores_the_package():
    orig = hsgen.builder.build_hs
    with Tracer({"hsgen.builder": {"build_hs": None},
                 "hsgen.kernels": {"no_such_kernel": None}}) as tr:
        assert hsgen.builder.build_hs is not orig
    assert hsgen.builder.build_hs is orig
    assert tr.absent == ["kernels.no_such_kernel"]


def test_checks_reject_a_perturbed_build():
    spec = ProblemSpec(SMOKE.dims, seed=5, nonhpd_fraction=SMOKE.nonhpd_fraction)
    inst = generate(spec)
    out = build_hs(inst, ExecPolicy(workers=1, tile=32))
    assert checks.reference_failures(inst, out, SMOKE.n_nonhpd) == []
    assert checks.reference_failures(inst, out, SMOKE.n_nonhpd + 1) != []
    out.s.matrix[1, 0] += 1e-6
    problems = checks.reference_failures(inst, out, SMOKE.n_nonhpd)
    assert any("Frobenius" in p for p in problems)
    assert any("Hermitian" in p for p in problems)


def test_model_flops_matches_the_paper_formulas_for_one_atom():
    # one HPD atom, n_l=1, n_g=1: gemm 8 + hemm 8, potrf 1, trmm 4,
    # diag 2, S1 4, S2 4, H1 8, H3 4
    assert checks.model_flops(1, 1, 1, 0) == 43
    assert checks.model_flops(1, 1, 1, 1) == 8 + 8 + 8 + 2 + 4 + 4 + 8 + 8


def test_read_hsm_parses_the_documented_header(tmp_path):
    from hsgen.storage import write_matrix

    m = np.arange(6, dtype=np.complex128).reshape(2, 3) * (1 + 2j)
    write_matrix(tmp_path / "m.hsm", m)
    shape, payload = checks.read_hsm(tmp_path / "m.hsm")
    assert shape == (2, 3) and payload == checks.matrix_bytes(m)


def test_run_fails_without_the_hsgen_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "atoms-nacl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
