"""The hsgen benchmark: workloads, the timed, memory and traced passes.

One ``Session`` runs one workload in the calling process:

1. memory pass under tracemalloc: the warm-up build, checked against numpy
   and kept as the reference, then one ``hsgen run`` and one load;
2. on multi-worker workloads, one build at one worker, checked bit for bit
   against the reference and timed for ``executor.speedup_1w``;
3. timed loop of whole rounds (5 x ``generate`` + ``save_instance``, one
   ``hsgen run``, one ``build_hs``) for the run length;
4. with tracing on: the traced set-up and ``hsgen run``, then per-tile
   kernel micro-benchmarks.

Every operation is checked; a check that fails marks it failed and the
session incorrect.  The tracemalloc and traced passes never overlap the
timed rounds.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from hsgen import kernels, probgen, storage
from hsgen.builder import build_hs
from hsgen.cli import main as cli_main
from hsgen.executor import ExecPolicy
from hsgen.matcore import Dims
from hsgen.probgen import ProblemSpec
from tracer import Tracer

_CPLX = 16  # bytes per complex128
_MB = 1e6


@dataclass(frozen=True)
class Workload:
    name: str
    n_atoms: int
    n_l: int
    n_g: int
    nonhpd_fraction: float
    workers: int
    tile: int

    @property
    def dims(self) -> Dims:
        return Dims(self.n_atoms, self.n_l, self.n_g)

    @property
    def n_nonhpd(self) -> int:
        # the generator's own rounding of the requested fraction
        return round(self.nonhpd_fraction * self.n_atoms)


# Why these three: see README.md.  Each stresses a different layer and
# bypasses the others, so an optimisation of one layer has a workload on
# which it should show and one on which it should not.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("atoms-nacl", 16, 49, 128, 0.25, 1, 512),
        Workload("wide-2w", 4, 16, 768, 0.25, 2, 256),
        Workload("thin-outputs", 2, 4, 1536, 0.5, 1, 512),
    )
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "build_s": "s",
    "build_gflops": "GFlop/s",
    "build_peak_mb": "MB",
    "run_peak_mb": "MB",
}

_SECTIONS = {
    "Loop 1": "builder.loop1_s",
    "Loop 2": "builder.loop2_s",
    "U norm": "builder.unorm_s",
    "S1": "builder.s1_s",
    "S2": "builder.s2_s",
    "H1": "builder.h1_s",
    "H2": "builder.h2_s",
    "H3": "builder.h3_s",
}
_KERNELS = {
    "potrf": "potrf_lower",
    "trmm": "trmm_left_conjtrans",
    "hemm": "hemm_left",
    "gemm": "gemm",
    "diag_scale": "diag_scale",
}

PER_LAYER = {
    **{name: "s" for name in _SECTIONS.values()},
    "builder.unaccounted_s": "s",
    "builder.scratch_stacks": "stacks",
    "executor.calls": "count",
    "executor.tiles": "count",
    "executor.busy_s": "s",
    "executor.bytes_mb": "MB",
    "executor.flops_per_byte": "flop/B",
    "executor.speedup_1w": "x",
    **{f"kernels.{k}_{suffix}": unit for k in _KERNELS
       for suffix, unit in (("s", "s"), ("calls", "count"))},
    "kernels.potrf_failed": "count",
    "kernels.tile_herk_gflops": "GFlop/s",
    "kernels.tile_her2k_gflops": "GFlop/s",
    "kernels.tile_gemm_gflops": "GFlop/s",
    "matcore.mirror_s": "s",
    "matcore.stack_s": "s",
    "probgen.generate_s": "s",
    "probgen.validate_s": "s",
    "storage.save_s": "s",
    "storage.load_s": "s",
    "storage.write_s": "s",
    "storage.read_mb": "MB",
    "storage.written_mb": "MB",
    "storage.load_peak_mb": "MB",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}

#: Set-ups are cheap next to a build; several per round give setup_s a
#: median over as many samples, spread across the whole timed window.
SETUPS_PER_ROUND = 5
MICRO_REPS = 3


def _partitioned_flops(kind: str, operands: tuple) -> int:
    """Flops of one run_partitioned call from its operand shapes."""
    c = operands[-1]
    n = c.shape[0]
    if kind == "gemm":
        _, opa, a, _, _, _, _ = operands
        k = a.shape[1] if opa == "N" else a.shape[0]
        return 8 * c.shape[0] * c.shape[1] * k
    if kind == "herk":
        return 4 * operands[1].shape[0] * n * n
    return 8 * operands[1].shape[0] * n * n


def _observe_partitioned(args, kwargs, res):
    kind, operands = args[0].value, args[1]
    return {"kind": kind, "tiles": res.n_tiles, "bytes": res.bytes_touched,
            "flops": _partitioned_flops(kind, operands)}


def _observe_build(args, kwargs, out):
    totals = out.ledger.section_totals()
    records = {}
    for r in out.ledger:
        records[r.section] = records.get(r.section, 0) + 1
    return {"sections": {sec: secs for sec, (_, secs) in totals.items()},
            "records": records}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


TRACE_TARGETS = {
    "hsgen.builder": {"build_hs": _observe_build},
    "hsgen.executor": {"run_partitioned": _observe_partitioned},
    "hsgen.kernels": {
        "potrf_lower": lambda a, k, r: {"failed": r[0] is None},
        "trmm_left_conjtrans": None,
        "hemm_left": None,
        "gemm": None,
        "diag_scale": None,
    },
    "hsgen.matcore": {"hermitian_mirror": None, "stack": None},
    "hsgen.probgen": {"generate": None, "validate_instance": None},
    "hsgen.storage": {
        "save_instance": None,
        "load_instance": None,
        "write_matrix": _file_bytes,
        "read_matrix": _file_bytes,
        "read_vector": _file_bytes,
    },
}


class Session:
    """One workload, one seed, one run length; see the module docstring."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, workdir):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = Path(workdir)
        self.spec = ProblemSpec(workload.dims, seed=seed,
                                nonhpd_fraction=workload.nonhpd_fraction)
        self.policy = ExecPolicy(workers=workload.workers, tile=workload.tile)
        self.inst_dir = self.workdir / "inst"
        self.setup_dir = self.workdir / "setup"
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: dict[str, list] = collections.defaultdict(list)
        self.peaks: dict[str, float] = {}
        self.tracer: Tracer | None = None
        self.metrics: dict[str, float] = {}
        self.ref_h = self.ref_s = None

    # -- operations and their checks ------------------------------------

    def attempt(self, label: str, op) -> None:
        """Run one operation; ``op`` returns its check failures (empty if none)."""
        self.attempted += 1
        try:
            problems = op()
        except Exception:  # a raising operation is counted as failed, not fatal
            self.failed += 1
            print(f"operation failed: {label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        if problems:
            self.failed += 1
            self.correct = False
            print(f"check failed: {label}: {'; '.join(problems)}", file=sys.stderr)

    def _timed(self, key: str, do, check) -> None:
        """Attempt ``do``; its wall time joins ``times[key]`` if ``check`` passes."""
        def op():
            t0 = time.perf_counter()
            result = do()
            seconds = time.perf_counter() - t0
            problems = check(result)
            if not problems:
                self.times[key].append(seconds)
            return problems

        self.attempt(key, op)

    def _peaked(self, key: str, do, check) -> None:
        """Attempt ``do`` under tracemalloc; its peak above the memory held
        before it becomes ``peaks[key]`` if ``check`` passes."""
        def op():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = do()
            peak = (tracemalloc.get_traced_memory()[1] - before) / _MB
            problems = check(result)
            if not problems:
                self.peaks[key] = peak
            return problems

        self.attempt(f"memory pass: {key}", op)

    def _traced(self, label: str, do, check) -> None:
        """Attempt ``do`` inside the tracer, as one root span ``label``."""
        def op():
            with self.tracer, self.tracer.region(label):
                result = do()
            return check(result)

        self.attempt(f"traced {label}", op)

    def _setup(self):
        inst = probgen.generate(self.spec)
        storage.save_instance(inst, self.setup_dir, seed=self.spec.seed,
                              nonhpd_fraction=self.spec.nonhpd_fraction)
        return inst

    def _check_setup(self, inst) -> list:
        problems = self._same_instance(inst)
        if not (self.setup_dir / "manifest.json").is_file():
            problems.append("no manifest written")
        shutil.rmtree(self.setup_dir)  # the next set-up writes a fresh directory
        return problems

    def _run(self) -> int:
        argv = ["run", "--in", str(self.inst_dir),
                "--workers", str(self.w.workers), "--tile", str(self.w.tile)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)

    def _same_instance(self, inst) -> list:
        fields = ("a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb", "u_norms")
        for f in fields:
            for x, y in zip(getattr(inst, f), getattr(self.ref_inst, f), strict=True):
                if not np.array_equal(x, y):
                    return [f"instance field {f} differs from the seed's instance"]
        return []

    def _same_output(self, out) -> list:
        problems = []
        if checks.matrix_bytes(out.h.matrix) != self.ref_h:
            problems.append("H is not bit-identical to the reference build")
        if checks.matrix_bytes(out.s.matrix) != self.ref_s:
            problems.append("S is not bit-identical to the reference build")
        return problems

    def _same_files(self, rc: int) -> list:
        if rc != 0:
            return [f"hsgen run exited with {rc}"]
        problems = []
        n = self.w.n_g
        for name, ref in (("H.hsm", self.ref_h), ("S.hsm", self.ref_s)):
            shape, payload = checks.read_hsm(self.inst_dir / name)
            if shape != (n, n) or payload != ref:
                problems.append(f"{name} does not match the reference build bit for bit")
        split = json.loads((self.inst_dir / "report.json").read_text())["split"]
        if (split["hpd"], split["nonhpd"]) != (self.w.n_atoms - self.w.n_nonhpd, self.w.n_nonhpd):
            problems.append(f"report split {split} is not the designed split")
        return problems

    # -- passes ----------------------------------------------------------

    def _memory_pass(self) -> None:
        """Untimed: the warm-up build, which becomes the checked reference,
        then one ``hsgen run`` and one load, each under tracemalloc."""
        tracemalloc.start()
        try:
            self._peaked("build", lambda: build_hs(self.inst, self.policy), self._set_reference)
            self._peaked("run", self._run, self._same_files)
            self._peaked("load", lambda: storage.load_instance(self.inst_dir), self._same_instance)
        finally:
            tracemalloc.stop()

    def _set_reference(self, out) -> list:
        problems = self._same_instance(self.inst) + checks.reference_failures(
            self.inst, out, self.w.n_nonhpd)
        if not problems:
            self.ref_h = checks.matrix_bytes(out.h.matrix)
            self.ref_s = checks.matrix_bytes(out.s.matrix)
        return problems

    def _timed_rounds(self) -> None:
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            for _ in range(SETUPS_PER_ROUND):
                self._timed("setup", self._setup, self._check_setup)
            self._timed("run", self._run, self._same_files)
            self._timed("build", lambda: build_hs(self.inst, self.policy), self._same_output)
            rounds += 1

    def _traced_pass(self) -> None:
        self.tracer = Tracer(TRACE_TARGETS)
        self._traced("setup", self._setup, self._check_setup)
        self._traced("cli.run", self._run, self._same_files)

    def _tile_gflops(self) -> dict:
        """Public kernels on one output tile at the executor's tile edge and inner dims."""
        w = self.w
        e = min(w.tile, w.n_g)
        k = w.n_atoms * w.n_l
        k2 = max(w.n_nonhpd, 1) * w.n_l
        rng = np.random.Generator(np.random.Philox(self.seed))

        def cmat(rows, cols):
            re, im = rng.standard_normal((2, rows, cols))
            return np.asfortranarray(re + 1j * im)

        a, b, a2, x2 = cmat(k, e), cmat(k, e), cmat(k2, e), cmat(k2, e)
        c = np.zeros((e, e), dtype=np.complex128, order="F")
        cases = {
            "herk": (lambda: kernels.herk(1.0, a, 0.0, c), 4 * k * e * e),
            "her2k": (lambda: kernels.her2k(1.0, a, b, 0.0, c), 8 * k * e * e),
            "gemm": (lambda: kernels.gemm(1, "C", a2, "N", x2, 0, c), 8 * e * e * k2),
        }
        out = {}
        for name, (fn, flops) in cases.items():
            secs = []
            for _ in range(MICRO_REPS):
                t0 = time.perf_counter()
                fn()
                secs.append(time.perf_counter() - t0)
            out[f"kernels.tile_{name}_gflops"] = flops / statistics.median(secs) / 1e9
        return out

    def run(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ref_inst = probgen.generate(self.spec)
        storage.save_instance(self.ref_inst, self.inst_dir, seed=self.spec.seed,
                              nonhpd_fraction=self.spec.nonhpd_fraction)
        self.inst = storage.load_instance(self.inst_dir)

        self._memory_pass()
        if self.ref_h is None:
            raise RuntimeError("no correct reference build; every later check needs one")
        if self.w.workers > 1:
            one = ExecPolicy(workers=1, tile=self.w.tile)
            self._timed("build_1w", lambda: build_hs(self.inst, one), self._same_output)
        self._timed_rounds()
        if self.trace:
            self._traced_pass()
        self.metrics = self._per_layer() if self.trace else self._end_to_end()

    # -- metrics ---------------------------------------------------------

    def _end_to_end(self) -> dict:
        build_s = statistics.median(self.times["build"])
        w = self.w
        return {
            "setup_s": statistics.median(self.times["setup"]),
            "run_s": statistics.median(self.times["run"]),
            "build_s": build_s,
            "build_gflops": checks.model_flops(w.n_atoms, w.n_l, w.n_g, w.n_nonhpd)
            / build_s / 1e9,
            "build_peak_mb": self.peaks["build"],
            "run_peak_mb": self.peaks["run"],
        }

    def _per_layer(self) -> dict:
        tr, w = self.tracer, self.w
        build_s = statistics.median(self.times["build"])
        m: dict[str, float] = {}

        build_spans = tr.named("builder.build_hs")
        build_wall = build_spans[0].seconds if build_spans else 0.0
        sections = build_spans[0].info["sections"] if build_spans else {}
        for sec, name in _SECTIONS.items():
            m[name] = sections.get(sec, 0.0)
        m["builder.unaccounted_s"] = build_wall - sum(m[name] for name in _SECTIONS.values())
        stack_bytes = w.n_atoms * w.n_l * w.n_g * _CPLX
        m["builder.scratch_stacks"] = (self.peaks["build"] * _MB - 2 * w.n_g**2 * _CPLX) / stack_bytes

        part = tr.named("executor.run_partitioned")
        n_bytes = sum(s.info.get("bytes", 0) for s in part)
        m["executor.calls"] = len(part)
        m["executor.tiles"] = sum(s.info.get("tiles", 0) for s in part)
        m["executor.busy_s"] = sum(s.seconds for s in part)
        m["executor.bytes_mb"] = n_bytes / _MB
        m["executor.flops_per_byte"] = sum(s.info.get("flops", 0) for s in part) / n_bytes if n_bytes else 0.0
        m["executor.speedup_1w"] = (statistics.median(self.times["build_1w"]) / build_s
                                    if w.workers > 1 else 1.0)

        for short, fname in _KERNELS.items():
            m[f"kernels.{short}_s"] = tr.self_seconds(f"kernels.{fname}")
            m[f"kernels.{short}_calls"] = tr.calls(f"kernels.{fname}")
        m["kernels.potrf_failed"] = sum(s.info.get("failed", False) for s in tr.named("kernels.potrf_lower"))
        m.update(self._tile_gflops())

        m["matcore.mirror_s"] = tr.self_seconds("matcore.hermitian_mirror")
        m["matcore.stack_s"] = tr.self_seconds("matcore.stack")
        m["probgen.generate_s"] = tr.inclusive("probgen.generate")
        m["probgen.validate_s"] = tr.inclusive("probgen.validate_instance")

        writes = tr.named("storage.write_matrix", outside="storage.save_instance")
        reads = tr.named("storage.read_matrix") + tr.named("storage.read_vector")
        m["storage.save_s"] = tr.inclusive("storage.save_instance")
        m["storage.load_s"] = tr.inclusive("storage.load_instance")
        m["storage.write_s"] = sum(s.seconds for s in writes)
        m["storage.read_mb"] = sum(s.info.get("bytes", 0) for s in reads) / _MB
        m["storage.written_mb"] = sum(s.info.get("bytes", 0) for s in writes) / _MB
        m["storage.load_peak_mb"] = self.peaks["load"]

        run_wall = tr.inclusive("cli.run")
        m["cli.other_s"] = run_wall - m["storage.load_s"] - build_wall - m["storage.write_s"]
        m["trace.overhead_s"] = build_wall - build_s
        return m

    def result(self) -> dict:
        units = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
