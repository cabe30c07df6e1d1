"""Run the hsgen benchmark from the root of a checkout.

    python3 hsbench/run.py --workload atoms-nacl --seed 1 --seconds 15 --trace 0
    python3 hsbench/run.py --workload all --seed 1 --seconds 15 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload in a fresh process, one after the
other, and prefixes each metric with its workload.  Exit code 0 on a
finished run, 1 if a workload could not finish, 2 on bad usage or when
the hsgen sources are not beside the benchmark.
"""

import os
import sys

# Instance generation and the checks use BLAS; the build never does.  One
# BLAS thread keeps them off the cores the build's workers use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".hsbench"


def _parse(argv):
    p = argparse.ArgumentParser(prog="hsbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1 or not 0 <= args.seed < 2**64:
        p.error("--seconds must be >= 1 and --seed a 64-bit unsigned integer")
    return args


def _run_all(args, names) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hsgen" / "__init__.py").is_file():
        print(f"error: no hsgen sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    if args.workload == "all":
        return _run_all(args, list(bench.WORKLOADS))
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)} or all", file=sys.stderr)
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    session = bench.Session(bench.WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace), workdir)
    try:
        session.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if session.tracer is not None:
        session.tracer.write_chrome_trace(
            WORK / f"trace-{args.workload}-seed{args.seed}.json")
    res = session.result()
    for name, m in res["metrics"].items():
        print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    if session.tracer is not None and session.tracer.absent:
        print("absent from hsgen (reported as 0): " + ", ".join(session.tracer.absent))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
