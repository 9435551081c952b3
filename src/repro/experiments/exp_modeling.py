"""Modeling experiments: Figures 17/18 (two-segment fits), Table 5
(pivot points), Figure 19 (Itanium2 validation), and the Section 6.2
extrapolation claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.extrapolation import ExtrapolationReport, evaluate_extrapolation
from repro.core.pivot import (
    PivotAnalysis,
    pivot_point,
    representative_configuration,
)
from repro.experiments.configs import (
    DEFAULT_SETTINGS,
    FULL_WAREHOUSE_GRID,
    RunnerSettings,
)
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.records import ConfigResult
from repro.experiments.report import render_table
from repro.hw.machine import ITANIUM2_QUAD, XEON_MP_QUAD

#: The paper's Table 5 pivot points, for side-by-side comparison.
PAPER_TABLE5 = {
    ("cpi", 1): 119, ("cpi", 2): 142, ("cpi", 4): 130,
    ("mpi", 1): 102, ("mpi", 2): 147, ("mpi", 4): 144,
}
#: The paper's Itanium2 CPI pivot (Section 6.3).
PAPER_ITANIUM2_CPI_PIVOT = 118


@dataclass(frozen=True)
class ModelingResult:
    """Piecewise fits and pivots over the full grid."""

    cpi_analyses: dict[int, PivotAnalysis]
    mpi_analyses: dict[int, PivotAnalysis]
    records: dict[int, list[ConfigResult]]


def analyze(records_by_p: dict[int, list[ConfigResult]]) -> ModelingResult:
    """Fit both metrics for each processor count."""
    cpi_analyses = {}
    mpi_analyses = {}
    for p, records in records_by_p.items():
        xs = [r.warehouses for r in records]
        cpi_analyses[p] = pivot_point(xs, [r.cpi.cpi for r in records],
                                      metric="cpi", processors=p)
        mpi_analyses[p] = pivot_point(
            xs, [r.rates.l3_misses_per_instr for r in records],
            metric="mpi", processors=p)
    return ModelingResult(cpi_analyses=cpi_analyses,
                          mpi_analyses=mpi_analyses, records=records_by_p)


def render_fig17_18(result: ModelingResult, processors: int = 4) -> str:
    """Figures 17/18: the two linear regions and their pivot, 4P."""
    blocks = []
    for figure, analysis in (("Figure 17 (CPI)",
                              result.cpi_analyses[processors]),
                             ("Figure 18 (L3 MPI)",
                              result.mpi_analyses[processors])):
        fit = analysis.fit
        rows = [
            ["cached region", f"{fit.cached.slope:.3e}",
             f"{fit.cached.intercept:.4f}", f"{fit.cached.r_squared:.3f}"],
            ["scaled region", f"{fit.scaled.slope:.3e}",
             f"{fit.scaled.intercept:.4f}", f"{fit.scaled.r_squared:.3f}"],
        ]
        note = (f"pivot at {analysis.pivot_warehouses:.0f} warehouses; "
                f"representative scaled configuration: "
                f"{representative_configuration(analysis)}W")
        blocks.append(render_table(
            f"{figure}: two-region linear approximation, {processors}P",
            ["region", "slope", "intercept", "r^2"], rows, note=note))
    return "\n\n".join(blocks)


def render_table5(result: ModelingResult) -> str:
    """Table 5: warehouses at the pivot points."""
    rows = []
    for p in sorted(result.cpi_analyses):
        rows.append([
            f"{p}P",
            f"{result.cpi_analyses[p].pivot_warehouses:.0f}",
            PAPER_TABLE5[("cpi", p)],
            f"{result.mpi_analyses[p].pivot_warehouses:.0f}",
            PAPER_TABLE5[("mpi", p)],
        ])
    return render_table(
        "Table 5: number of warehouses for pivot points",
        ["Processors", "CPI pivot", "CPI (paper)", "MPI pivot",
         "MPI (paper)"],
        rows,
        note="Reproduction target: pivots in the paper's ~100-150 band.")


@dataclass(frozen=True)
class Fig19Result:
    """Figure 19 reproduction: fits plus extrapolation errors."""
    xeon: PivotAnalysis
    itanium: PivotAnalysis


def run_fig19(settings: RunnerSettings = DEFAULT_SETTINGS,
              warehouses=FULL_WAREHOUSE_GRID,
              processors: int = 4) -> Fig19Result:
    """Figure 19: CPI scaling on the Quad Itanium2 vs the Quad Xeon.

    On this simulated testbed the Itanium2's knee is capacity-driven and
    sits ~3x further out than the Xeon's (its L3 is 3x larger), so its
    two-region fit needs a wider warehouse grid to see both regions.
    This is a documented divergence from the paper, whose measured
    Itanium2 pivot stayed near the Xeon's (118W) — see EXPERIMENTS.md.
    """
    extended = tuple(warehouses) + (1200, 1600, 2400)
    records = run_many(
        [RunSpec(w, processors, machine=XEON_MP_QUAD, settings=settings)
         for w in warehouses]
        + [RunSpec(w, processors, machine=ITANIUM2_QUAD, settings=settings)
           for w in extended])
    xeon_records = records[:len(warehouses)]
    itanium_records = records[len(warehouses):]
    xeon = pivot_point([r.warehouses for r in xeon_records],
                       [r.cpi.cpi for r in xeon_records],
                       metric="cpi", processors=processors)
    itanium = pivot_point([r.warehouses for r in itanium_records],
                          [r.cpi.cpi for r in itanium_records],
                          metric="cpi", processors=processors)
    return Fig19Result(xeon=xeon, itanium=itanium)


def render_fig19(result: Fig19Result) -> str:
    """Rendered table for the Figure 19 model fits."""
    rows = []
    for w, itanium_cpi in zip(result.itanium.warehouses,
                              result.itanium.values):
        if w in result.xeon.warehouses:
            index = result.xeon.warehouses.index(w)
            xeon_cpi = f"{result.xeon.values[index]:.3f}"
        else:
            xeon_cpi = "-"
        rows.append([int(w), xeon_cpi, itanium_cpi])
    cached_ratio = (result.itanium.fit.cached.slope
                    / result.xeon.fit.cached.slope)
    note = (
        f"Itanium2 (3MB L3, 1.5x bus bandwidth): cached-region slope is "
        f"{cached_ratio:.2f}x the Xeon's (paper: visibly flatter); CPI "
        f"pivots: Xeon {result.xeon.pivot_warehouses:.0f}W, Itanium2 "
        f"{result.itanium.pivot_warehouses:.0f}W. Documented divergence: "
        f"the paper measured an Itanium2 pivot of "
        f"{PAPER_ITANIUM2_CPI_PIVOT}W, close to the Xeon's; our synthetic "
        f"trace's knee scales with L3 capacity, so the simulated pivot "
        f"moves right with the 3x L3 (see EXPERIMENTS.md).")
    return render_table("Figure 19: CPI scaling, Quad Xeon vs Quad Itanium2",
                        ["Warehouses", "Xeon CPI", "Itanium2 CPI"],
                        rows, note=note)


def run_extrapolation(result: ModelingResult, processors: int = 4,
                      train_max: float = 300.0,
                      ) -> dict[str, list[ExtrapolationReport]]:
    """Section 6.2: predict large-W behavior from <=train_max configs."""
    records = result.records[processors]
    xs = [float(r.warehouses) for r in records]
    out = {}
    out["cpi"] = evaluate_extrapolation(
        xs, [r.cpi.cpi for r in records], train_max)
    out["mpi"] = evaluate_extrapolation(
        xs, [r.rates.l3_misses_per_instr for r in records], train_max)
    return out


def render_extrapolation(reports: dict[str, list[ExtrapolationReport]]) -> str:
    """Rendered table for the Section 6.2 extrapolation check."""
    rows = []
    for metric, metric_reports in reports.items():
        for report in metric_reports:
            rows.append([metric, report.model,
                         f"{report.mean_relative_error:.1%}",
                         f"{report.max_relative_error:.1%}"])
    return render_table(
        "Section 6.2: extrapolating scaled-setup behavior",
        ["Metric", "Model", "Mean rel. error", "Max rel. error"],
        rows,
        note="The pivot/scaled-line method should beat both the single "
             "global line and the cached-setup-as-truth assumption.")
