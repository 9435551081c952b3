"""Rendering: plain-text tables/series and per-run report dashboards.

Two layers live here:

- the fixed-width :func:`render_table` / :func:`render_series` helpers
  every experiment module renders its result through, so the benchmark
  harness prints the same rows/series the paper reports;
- the run-report generator behind ``python -m repro report``: a
  :class:`RunReport` assembles one run's manifest, phase-timing tree
  (from :mod:`repro.obs.tracing`), counter provenance
  (:mod:`repro.obs.provenance`), result summary, and — when a fault
  plan was active — the fault/retry timeline, then renders to Markdown
  or a dependency-free HTML page under ``results/reports/``.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from repro.experiments.records import ConfigResult
    from repro.faults import FaultPlan
    from repro.obs.manifest import RunManifest
    from repro.obs.provenance import EmonProvenance
    from repro.obs.tracing import Tracer


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence], note: str = "") -> str:
    """A fixed-width table with a title rule."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * max(len(title), sum(widths) + 2 * (len(widths) - 1))]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def render_series(title: str, x_label: str, xs: Sequence,
                  series: dict[str, Sequence[float]], note: str = "") -> str:
    """A figure as columns: x plus one column per named series."""
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(xs):
        rows.append([x] + [values[index] for values in series.values()])
    return render_table(title, headers, rows, note=note)


def _fmt(cell) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        if abs(cell) >= 0.01:
            return f"{cell:.3f}"
        return f"{cell:.2e}"
    return str(cell)


# ---------------------------------------------------------------------------
# Run reports (python -m repro report)


@dataclass
class ReportSection:
    """One dashboard section: a titled table plus optional prose."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence]
    note: str = ""


@dataclass
class RunReport:
    """A per-run dashboard assembled from observability artifacts."""

    title: str
    sections: list[ReportSection] = field(default_factory=list)

    def to_markdown(self) -> str:
        """GitHub-flavored Markdown rendering."""
        lines = [f"# {self.title}", ""]
        for section in self.sections:
            lines.append(f"## {section.title}")
            lines.append("")
            lines.append("| " + " | ".join(section.headers) + " |")
            lines.append("|" + "|".join("---" for _ in section.headers) + "|")
            for row in section.rows:
                cells = [_fmt(cell).replace("|", "\\|") for cell in row]
                lines.append("| " + " | ".join(cells) + " |")
            if section.note:
                lines.append("")
                lines.append(section.note)
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def to_html(self) -> str:
        """Self-contained HTML page (no external assets or libraries)."""
        esc = _html.escape
        parts = [
            "<!DOCTYPE html>",
            "<html><head><meta charset='utf-8'>",
            f"<title>{esc(self.title)}</title>",
            "<style>",
            "body{font-family:monospace;margin:2em;max-width:70em}",
            "table{border-collapse:collapse;margin:1em 0}",
            "td,th{border:1px solid #999;padding:0.25em 0.6em;"
            "text-align:left;white-space:pre}",
            "th{background:#eee}",
            "</style></head><body>",
            f"<h1>{esc(self.title)}</h1>",
        ]
        for section in self.sections:
            parts.append(f"<h2>{esc(section.title)}</h2>")
            parts.append("<table><tr>"
                         + "".join(f"<th>{esc(str(h))}</th>"
                                   for h in section.headers)
                         + "</tr>")
            for row in section.rows:
                parts.append("<tr>"
                             + "".join(f"<td>{esc(_fmt(cell))}</td>"
                                       for cell in row)
                             + "</tr>")
            parts.append("</table>")
            if section.note:
                parts.append(f"<p>{esc(section.note)}</p>")
        parts.append("</body></html>")
        return "\n".join(parts) + "\n"


def manifest_section(manifest: "RunManifest") -> ReportSection:
    """The manifest rendered field by field."""
    rows = [
        ["config key", manifest.config_key],
        ["machine", manifest.machine],
        ["W / C / P", f"{manifest.warehouses} / {manifest.clients} / "
                      f"{manifest.processors}"],
        ["seed", manifest.seed],
        ["settings fingerprint", manifest.settings_fingerprint],
        ["fault fingerprint", manifest.fault_fingerprint or "(healthy)"],
        ["package version", manifest.package_version],
        ["git revision", manifest.git_rev],
        ["python / platform", f"{manifest.python_version} / "
                              f"{manifest.platform}"],
        ["worker count", manifest.worker_count],
        ["wall / CPU time", f"{manifest.wall_time_s:.2f}s / "
                            f"{manifest.cpu_time_s:.2f}s"],
        ["fixed-point rounds", manifest.fixed_point_rounds],
        ["tracing enabled", manifest.tracing_enabled],
    ]
    return ReportSection("Run manifest", ["field", "value"], rows)


def _counters_text(counters: dict[str, float], limit: int = 6) -> str:
    parts = [f"{name}={_fmt(value)}"
             for name, value in list(counters.items())[:limit]]
    if len(counters) > limit:
        parts.append("...")
    return " ".join(parts)


def phase_section(tracer: "Tracer") -> ReportSection:
    """Flamegraph-style timing table: nesting as indentation.

    ``self`` is wall time net of child spans; ``share`` is each span's
    wall time relative to its root.
    """
    rows = []
    root_total = 1.0
    for depth, span in tracer.walk():
        if depth == 0:
            root_total = span.duration_s or 1.0
        # "·" indentation survives Markdown table rendering (leading
        # spaces in a cell would be collapsed by the renderer).
        rows.append([
            "· " * depth + span.name,
            f"{span.duration_s * 1000:.1f}",
            f"{span.cpu_s * 1000:.1f}",
            f"{span.self_s * 1000:.1f}",
            f"{span.duration_s / root_total:.0%}",
            _counters_text(span.counters),
        ])
    return ReportSection(
        "Phase timings",
        ["phase", "wall ms", "cpu ms", "self ms", "share", "counters"],
        rows,
        note="Nesting shown by indentation; share is relative to the "
             "span's root.")


def convergence_section(manifest: "RunManifest") -> ReportSection:
    """The run's fixed-point trajectory from ``manifest.round_deltas``."""
    rows = []
    for record in manifest.round_deltas:
        tps_delta = record.get("tps_delta")
        cpi_delta = record.get("cpi_delta")
        rows.append([
            record.get("round", "-"),
            f"{record.get('tps', 0.0):.1f}",
            f"{record.get('cpi', 0.0):.3f}",
            f"{record.get('user_cpi', 0.0):.3f}",
            f"{record.get('os_cpi', 0.0):.3f}",
            f"{tps_delta:+.2f}" if tps_delta is not None else "-",
            f"{cpi_delta:+.4f}" if cpi_delta is not None else "-",
        ])
    return ReportSection(
        "Fixed-point convergence",
        ["round", "TPS", "CPI", "user CPI", "OS CPI", "ΔTPS", "ΔCPI"],
        rows,
        note="Iterates of the coupled DES ⇄ CPI fixed point; the "
             "shrinking deltas are what the ConvergenceGuard enforces.")


def provenance_section(provenance: "EmonProvenance") -> ReportSection:
    """Counter provenance: metric → formula → events → stall cost."""
    return ReportSection(
        f"Counter provenance ({provenance.machine})",
        ["metric", "value", "Table 4 formula", "Table 2 events",
         "raw EMON events", "stall cost"],
        provenance.rows(),
        note="Derivations mirror the paper's Tables 2-4; see "
             "repro.obs.provenance.")


def result_section(result: "ConfigResult") -> ReportSection:
    """The headline numbers of the run (the `repro run` view)."""
    system = result.system
    rows = [
        ["TPS (measured / iron law)",
         f"{system.tps:.0f} / {result.tps_ironlaw:.0f}"],
        ["CPU utilization", f"{system.cpu_utilization:.1%}"],
        ["IPX (user + OS)",
         f"{system.user_ipx / 1e6:.2f}M + {system.os_ipx / 1e6:.2f}M"],
        ["CPI (L3 share)",
         f"{result.cpi.cpi:.2f} ({result.cpi.l3_share:.0%})"],
        ["L3 MPI (per 1000 instr)",
         f"{result.rates.l3_misses_per_instr * 1000:.2f}"],
        ["bus utilization", f"{result.cpi.bus_utilization:.0%}"],
        ["reads / switches per txn",
         f"{system.reads_per_txn:.2f} / "
         f"{system.context_switches_per_txn:.2f}"],
    ]
    return ReportSection("Result summary", ["metric", "value"], rows)


def fault_timeline_section(plan: "FaultPlan",
                           result: "ConfigResult") -> ReportSection:
    """Time-ordered injected faults plus the observed retry totals."""
    rows: list[Sequence] = []
    events: list[tuple[float, str, str]] = []
    for degradation in plan.disks:
        target = ("all disks" if degradation.disk < 0
                  else f"disk {degradation.disk}")
        if degradation.latency_factor != 1.0:
            events.append((0.0, "disk degradation",
                           f"{target}: latency x"
                           f"{degradation.latency_factor:g}"))
        for start, end in degradation.outages:
            events.append((start, "disk outage",
                           f"{target}: [{start:g}s, {end:g}s]"))
    for stall in plan.log_stalls:
        for start, end in stall.windows:
            events.append((start, "log stall", f"[{start:g}s, {end:g}s]"))
    for storm in plan.lock_storms:
        events.append((storm.start_s, "lock storm",
                       f"[{storm.start_s:g}s, +{storm.duration_s:g}s] "
                       f"{storm.warehouses_per_burst} warehouse(s)/burst"))
    if plan.aborts is not None and plan.aborts.probability > 0:
        events.append((0.0, "transient aborts",
                       f"p={plan.aborts.probability:g} per transaction"))
    for when, kind, detail in sorted(events, key=lambda e: (e[0], e[1])):
        rows.append([f"{when:g}s", kind, detail])
    rows.append(["(whole run)", "observed aborts/txn",
                 f"{result.system.aborts_per_txn:.3f}"])
    rows.append(["(whole run)", "observed retries/txn",
                 f"{result.system.retries_per_txn:.3f}"])
    return ReportSection(
        "Fault / retry timeline",
        ["sim time", "event", "detail"], rows,
        note=f"Fault plan fingerprint {plan.fingerprint()}; retry policy: "
             f"base {plan.retry.base_backoff_s:g}s x{plan.retry.multiplier:g}"
             f" up to {plan.retry.max_attempts} attempts.")


def build_run_report(result: "ConfigResult",
                     manifest: Optional["RunManifest"] = None,
                     tracer: Optional["Tracer"] = None,
                     provenance: Optional["EmonProvenance"] = None,
                     faults: Optional["FaultPlan"] = None) -> RunReport:
    """Assemble the dashboard for one run from whatever is available.

    Sections for absent inputs are skipped, so the report degrades
    gracefully (e.g. a cache-hit run has no trace).
    """
    report = RunReport(
        title=f"Run report — {result.machine} W={result.warehouses} "
              f"C={result.clients} P={result.processors}")
    if manifest is not None:
        report.sections.append(manifest_section(manifest))
    report.sections.append(result_section(result))
    if manifest is not None and manifest.round_deltas:
        report.sections.append(convergence_section(manifest))
    if tracer is not None and tracer.roots:
        report.sections.append(phase_section(tracer))
    if provenance is not None:
        report.sections.append(provenance_section(provenance))
    if faults is not None:
        report.sections.append(fault_timeline_section(faults, result))
    return report


def write_run_report(report: RunReport, directory: Path | str,
                     stem: str, html: bool = False) -> list[Path]:
    """Write ``<stem>.md`` (and optionally ``.html``); returns paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    md_path = directory / f"{stem}.md"
    md_path.write_text(report.to_markdown(), encoding="utf-8")
    paths.append(md_path)
    if html:
        html_path = directory / f"{stem}.html"
        html_path.write_text(report.to_html(), encoding="utf-8")
        paths.append(html_path)
    return paths
