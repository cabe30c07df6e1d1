"""Command-line front end: generate instances, assemble H and S, verify
against the numpy reference, and analyze the flop model.

Commands return 0 on success and 1 when ``verify`` exceeds its tolerance;
every other failure is raised.  ``main`` maps it to an exit code through
the one table ``_EXIT_CODES`` (the first matching class wins) and prints
one ``error:`` line: 3 data-invariant violation, 2 usage error (dims
whose fields no array can hold included), 1 storage or other runtime
failure, or memory the host cannot give.  Any other exception is a bug
and keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import errno
import json
import math
import os
import sys
import time
from pathlib import Path

from .builder import build_hs
from .kernels import ENGINES, ExecPolicy
from .matcore import Dims, InputError, InvariantError, rel_frob_error
from .probgen import ProblemSpec, generate, preset_dims
from .reference import h_reference, s_reference
from .report import (
    HEAVY_SECTIONS,
    PEAK_GFLOPS_COMBINED,
    TABLE5,
    format_table,
    heavy_fraction,
    section_flops,
    summarize,
    validate_flop_model,
)
from .storage import INSTANCE_FILES, StorageError, load_instance, save_instance, write_matrix


def _engine_argument(parser) -> None:
    parser.add_argument("--engine", choices=ENGINES, default=ExecPolicy.engine,
                        help="per-tile product: native (compiled on first use, needs cc) "
                             "or numpy; both give the same bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsgen",
        description="Assemble FLAPW Hamiltonian/overlap matrices from per-atom blocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic instance directory")
    gen.add_argument("--preset", help="test-case name (NaCl or AuAg)")
    gen.add_argument("--kmax", type=float, help="plane-wave cutoff for --preset")
    gen.add_argument("--na", type=int, help="number of atoms")
    gen.add_argument("--nl", type=int, help="rows per coefficient block")
    gen.add_argument("--ng", type=int, help="basis size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--nonhpd-frac", type=float, default=0.0)
    gen.add_argument("--out", required=True, help="output directory")

    run = sub.add_parser("run", help="assemble H and S from an instance directory")
    run.add_argument("--in", dest="indir", required=True)
    run.add_argument("--workers", type=int, default=1,
                     help="threads that share each large update and the closing mirror, "
                          "the calling thread included")
    run.add_argument("--tile", type=int, default=ExecPolicy.tile,
                     help="output-tile edge, at least 32; an edge above 256 runs as 256")
    run.add_argument("--report", help="path for the JSON report (default: DIR/report.json)")
    _engine_argument(run)

    ver = sub.add_parser("verify", help="compare the assembly against the reference oracle")
    ver.add_argument("--in", dest="indir", required=True)
    ver.add_argument("--tol", type=float, default=1e-9)
    _engine_argument(ver)

    fl = sub.add_parser("flops", help="closed-form flop analysis for a preset")
    fl.add_argument("--preset", required=True)
    fl.add_argument("--kmax", type=float, required=True)
    fl.add_argument("--nonhpd-count", type=int, default=0)
    fl.add_argument("--table5", action="store_true",
                    help="validate the model against the reference breakdown")
    return parser


def cmd_generate(args) -> int:
    explicit = [v is not None for v in (args.na, args.nl, args.ng)]
    if args.preset is not None:
        if any(explicit):
            raise InputError("give either --preset or --na/--nl/--ng, not both")
        if args.kmax is None:
            raise InputError("--preset requires --kmax")
        dims = preset_dims(args.preset, args.kmax)
    elif all(explicit):
        dims = Dims(args.na, args.nl, args.ng)
    else:
        raise InputError("give either --preset --kmax or all of --na/--nl/--ng")

    spec = ProblemSpec(dims, seed=args.seed, nonhpd_fraction=args.nonhpd_frac)
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()):
        raise InputError(f"{out} is not empty; give a new or empty directory")
    save_instance(generate(spec), out, seed=spec.seed,
                  nonhpd_fraction=spec.nonhpd_fraction)
    total = sum(f.stat().st_size for f in out.iterdir() if f.is_file())  # DIR was empty
    print(f"wrote instance: n_atoms={dims.n_atoms} n_l={dims.n_l} n_g={dims.n_g} "
          f"seed={spec.seed} ({total} bytes)")
    return 0


def _renameat2():
    """libc's ``renameat2``, or None where libc has none."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).renameat2
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


_RENAMEAT2 = _renameat2()
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2
#: errors after which ``os.replace`` moves the file instead: the target is
#: absent, or the kernel or filesystem cannot exchange
_NO_EXCHANGE = frozenset((errno.ENOENT, errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP))


def _exchange(tmp, path) -> bool:
    """Put ``tmp`` at ``path``.  Return True if the two were swapped in one
    step, so that ``tmp`` now names what ``path`` held; return False if
    ``path`` was absent or cannot be exchanged and ``os.replace`` moved
    ``tmp`` there."""
    if _RENAMEAT2 is not None:
        if _RENAMEAT2(_AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path),
                      _RENAME_EXCHANGE) == 0:
            return True
        err = ctypes.get_errno()
        if err not in _NO_EXCHANGE:
            raise OSError(err, os.strerror(err), str(path))
    os.replace(tmp, path)
    return False


def _write_all(outputs) -> None:
    """Write each ``(path, write)`` output as a set: ``write(tmp)`` fills a
    temporary sibling of ``path``, and the temporaries take their paths only
    after every write succeeded.  On failure raise StorageError; no
    temporary is left and every earlier output stays as it was.

    Each temporary is exchanged with its path (``renameat2`` with
    ``RENAME_EXCHANGE``), so the path names the whole old file or the whole
    new one at every instant.  Once all are in place, the old files, now
    under the temporaries' names, are removed in order; if a removal fails,
    that output and the ones after it are exchanged back.  Where the path
    is absent, or libc, the kernel or the filesystem cannot exchange,
    ``os.replace`` moves the temporary instead.  Unlike a rename over an
    existing file, an exchange does not make ext4 start writing the new
    file back before it returns (``auto_da_alloc``), about 30 ms for a
    37.7 MB matrix.  Outputs are never fsynced: a power loss soon after a
    run may lose them."""
    for path, _ in outputs:
        if path.is_dir():  # no file may take a directory's place
            raise StorageError(f"cannot write outputs: {path} is a directory")
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in outputs]
    swapped = []  # (tmp, path) whose tmp names the old file
    try:
        for (_, write), tmp in zip(outputs, temps):
            write(tmp)
        for (path, _), tmp in zip(outputs, temps):
            if _exchange(tmp, path):
                swapped.append((tmp, path))
        while swapped:
            os.unlink(swapped[0][0])
            swapped.pop(0)
    except OSError as exc:
        for tmp, path in swapped:
            with contextlib.suppress(OSError):
                _exchange(tmp, path)
        for tmp in temps:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        raise StorageError(f"cannot write outputs: {exc}") from exc


def cmd_run(args) -> int:
    policy = ExecPolicy(workers=args.workers, tile=args.tile, engine=args.engine)
    indir = Path(args.indir)
    report_path = Path(args.report) if args.report else indir / "report.json"
    # the report may replace neither an input nor the H or S it is written with
    taken = {(indir / name).resolve(): name for name in ("H.hsm", "S.hsm", *INSTANCE_FILES)}
    if (name := taken.get(report_path.resolve())) is not None:
        raise InputError(f"--report {report_path} is the instance's {name}; give another path")
    inst = load_instance(indir)
    if not report_path.parent.is_dir():
        raise StorageError(f"report directory {report_path.parent} does not exist")
    t0 = time.perf_counter()
    out = build_hs(inst, policy)
    wall = time.perf_counter() - t0

    sections = summarize(out.ledger, PEAK_GFLOPS_COMBINED)
    report = {
        "policy": {"workers": policy.workers, "tile": policy.tile, "engine": policy.engine},
        "split": {"hpd": out.split.hpd, "nonhpd": out.split.nonhpd},
        "peak_gflops": PEAK_GFLOPS_COMBINED,
        "total_seconds": wall,
        "total_flops": out.ledger.total_flops(),
        "sections": [dataclasses.asdict(r) for r in sections],
    }
    _write_all([
        (indir / "H.hsm", lambda p: write_matrix(p, out.h.matrix)),
        (indir / "S.hsm", lambda p: write_matrix(p, out.s.matrix)),
        (report_path, lambda p: p.write_text(json.dumps(report, indent=2) + "\n")),
    ])
    print(format_table(sections))
    print(f"split: {out.split.hpd} factored, {out.split.nonhpd} fallback; "
          f"wall time {wall:.3f} s; wrote {indir / 'H.hsm'}, {indir / 'S.hsm'}, {report_path}")
    return 0


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputError(f"--tol must be finite and nonnegative, got {args.tol}")
    inst = load_instance(args.indir)
    out = build_hs(inst, ExecPolicy(engine=args.engine))
    err_h = rel_frob_error(out.h.matrix, h_reference(inst))
    err_s = rel_frob_error(out.s.matrix, s_reference(inst))
    print(f"rel_frob_error H: {err_h:.3e}")
    print(f"rel_frob_error S: {err_s:.3e}")
    if err_h <= args.tol and err_s <= args.tol:
        print(f"OK (tol {args.tol:.1e})")
        return 0
    print(f"FAIL (tol {args.tol:.1e})")
    return 1


def cmd_flops(args) -> int:
    dims = preset_dims(args.preset, args.kmax)
    per = section_flops(dims, args.nonhpd_count)
    print(f"{args.preset} k_max={args.kmax}: n_atoms={dims.n_atoms} "
          f"n_l={dims.n_l} n_g={dims.n_g} nonhpd_count={args.nonhpd_count}")
    for section, flops in per.items():
        tag = " (large)" if section in HEAVY_SECTIONS and flops else ""
        print(f"  {section:<7} {flops:>20,} flops{tag}")
    frac = heavy_fraction(dims, args.nonhpd_count)
    print(f"heavy fraction (S1+S2+H1+H2+H3): {frac:.4f}")
    if frac < 0.97:
        print("NOTE: below the 0.97 off-load share the large-kernel split targets; "
              "at this size the per-atom loops carry a larger share of the work.")
    if args.table5:
        checks, implied = validate_flop_model()
        print("reference breakdown check (modeled flops / recorded seconds):")
        for c in checks:
            print(f"  {c.section}: modeled {c.modeled_gflops:.2f} GFlops/s vs "
                  f"recorded {c.published_gflops:.2f} (rel error {c.rel_error:.2e})")
        print("implied atom counts from the split-dependent rows "
              "(inconsistent with n_atoms, reported for reference):")
        for section, count in implied.items():
            print(f"  {section}: {count:.1f} atoms")
        print(f"recorded breakdown replay (efficiency vs {PEAK_GFLOPS_COMBINED:.0f} GFlops/s):")
        print(format_table(TABLE5))
    return 0


_COMMANDS = {"generate": cmd_generate, "run": cmd_run, "verify": cmd_verify,
             "flops": cmd_flops}

#: (exception class, exit code): the first class that matches decides
_EXIT_CODES = ((InvariantError, 3), (InputError, 2), (StorageError, 1), (OSError, 1),
               (MemoryError, 1))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
