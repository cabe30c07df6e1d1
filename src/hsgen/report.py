"""Per-section flop/time reporting and the closed-form flop model.

The model is validated against a reference breakdown recorded for the
NaCl test case at k_max 4.0 on a 16-core node with two K20x devices
(combined peak 2.6 TFlops double precision).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import SECTIONS, FlopLedger, KernelKind, flops_of
from .matcore import Dims, InputError
from .probgen import preset_dims

#: The five stacked updates large enough to be worth off-loading.
HEAVY_SECTIONS = ("S1", "S2", "H1", "H2", "H3")

#: Double-precision peak of the reference node (GFlops/s), the denominator
#: the recorded efficiency column used: two K20x (2 x 1300) plus the host (256).
PEAK_GFLOPS_COMBINED = 2856.0


@dataclass(frozen=True)
class SectionReport:
    section: str
    seconds: float
    flops: int
    gflops_per_s: float | None
    efficiency: float | None


#: The reference two-GPU timing breakdown, one report row per section.
TABLE5 = tuple(
    SectionReport(section, seconds, round(gflops * seconds * 1e9), gflops,
                  gflops / PEAK_GFLOPS_COMBINED)
    for section, seconds, gflops in (
        ("Loop 1", 2.27, 80.35),
        ("Loop 2", 2.62, 34.81),
        ("U norm", 0.23, 1.01),
        ("S1", 4.37, 1974.63),
        ("S2", 4.41, 1956.72),
        ("H1", 9.49, 1818.57),
        ("H2", 2.32, 1859.72),
        ("H3", 4.75, 1816.66),
    )
)


def summarize(ledger: FlopLedger, peak_gflops: float) -> list:
    """One SectionReport per section present in the ledger, in table order.

    A section whose accumulated time is zero reports its performance as
    absent rather than infinite.
    """
    if not ledger.records:
        raise InputError("cannot summarize an empty ledger")
    if not peak_gflops > 0:
        raise InputError(f"peak_gflops must be positive, got {peak_gflops!r}")
    totals = ledger.section_totals()
    out = []
    for section in SECTIONS:
        if section not in totals:
            continue
        flops, seconds = totals[section]
        gflops = flops / seconds / 1e9 if seconds > 0 else None
        eff = gflops / peak_gflops if gflops is not None else None
        out.append(SectionReport(section, seconds, flops, gflops, eff))
    return out


def section_flops(dims: Dims, nonhpd_count: int) -> dict:
    """Closed-form flops per section for a build with the given split.

    Sections whose final kernel would be skipped (no atoms on that branch)
    are reported as 0.
    """
    if not 0 <= nonhpd_count <= dims.n_atoms:
        raise InputError(
            f"nonhpd_count must be in [0, {dims.n_atoms}], got {nonhpd_count}"
        )
    n_a, n_l, n_g = dims.n_atoms, dims.n_l, dims.n_g
    k = n_a * n_l
    m = nonhpd_count
    h = n_a - m
    gemm_small = flops_of(KernelKind.GEMM, (n_l, n_g, n_l))
    hemm_small = flops_of(KernelKind.HEMM, (n_l, n_g))
    return {
        "Loop 1": n_a * (gemm_small + hemm_small),
        "Loop 2": h * (flops_of(KernelKind.POTRF, (n_l,)) + flops_of(KernelKind.TRMM, (n_l, n_g)))
        + m * hemm_small,
        "U norm": flops_of(KernelKind.DIAG_SCALE, (k, n_g)),
        "S1": flops_of(KernelKind.HERK, (n_g, k)),
        "S2": flops_of(KernelKind.HERK, (n_g, k)),
        "H1": flops_of(KernelKind.HER2K, (n_g, k)),
        "H2": flops_of(KernelKind.GEMM, (n_g, n_g, m * n_l)) if m else 0,
        "H3": flops_of(KernelKind.HERK, (n_g, h * n_l)) if h else 0,
    }


def heavy_fraction(dims: Dims, nonhpd_count: int) -> float:
    """Share of total flops spent in the five large stacked updates."""
    per = section_flops(dims, nonhpd_count)
    heavy = sum(per[s] for s in HEAVY_SECTIONS)
    return heavy / sum(per.values())


@dataclass(frozen=True)
class FlopModelCheck:
    section: str
    modeled_gflops: float
    published_gflops: float
    rel_error: float


def validate_flop_model():
    """Check the closed-form model against the reference breakdown.

    Returns ``(checks, implied_atoms)``.  The three split-independent large
    sections are validated as modeled flops over recorded seconds versus
    the recorded rate.  The two split-dependent sections cannot be
    validated that way - back-solving their recorded time x rate into atom
    counts gives ~128 failure-path plus ~512 success-path atoms, more than
    the 512 the case contains - so the implied counts are reported instead.
    """
    dims = preset_dims("NaCl", 4.0)
    per = section_flops(dims, 0)
    rows = {r.section: r for r in TABLE5}
    checks = []
    for section in ("S1", "S2", "H1"):
        row = rows[section]
        modeled = per[section] / row.seconds / 1e9
        checks.append(
            FlopModelCheck(
                section,
                modeled,
                row.gflops_per_s,
                abs(modeled - row.gflops_per_s) / row.gflops_per_s,
            )
        )
    per_atom = {
        "H2": flops_of(KernelKind.GEMM, (dims.n_g, dims.n_g, dims.n_l)),
        "H3": flops_of(KernelKind.HERK, (dims.n_g, dims.n_l)),
    }
    implied = {
        section: rows[section].seconds * rows[section].gflops_per_s * 1e9 / per_atom[section]
        for section in ("H2", "H3")
    }
    return checks, implied


def format_table(reports) -> str:
    """Aligned text table: Section | Time | Performance | Efficiency."""
    lines = [f"{'Section':<10} {'Time':>12} {'Performance':>18} {'Efficiency':>12}"]
    for r in reports:
        perf = f"{r.gflops_per_s:.2f} GFlops/s" if r.gflops_per_s is not None else "-"
        eff = f"{r.efficiency:.2f}" if r.efficiency is not None else "-"
        lines.append(f"{r.section:<10} {r.seconds:>7.2f} secs {perf:>18} {eff:>12}")
    return "\n".join(lines)
