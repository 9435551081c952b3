"""Sweep-level telemetry aggregation: N runs → one comparable report.

The unit of work in this reproduction — as in the paper's Tables 1/5
and Figures 2–19 — is the *sweep* across warehouses × clients ×
processors, so observability has to aggregate: this module folds the
per-point artifacts a telemetry sweep returns
(:class:`~repro.experiments.parallel.PointTelemetry`: result, manifest,
serialized span tree, metrics) into the sections of one Markdown/HTML
dashboard rendered by :class:`~repro.experiments.report.RunReport`:

- **Sweep summary** — per-point headline numbers with wall/CPU cost;
- **Cache provenance** — which points were computed vs served from
  cache, under which key and code revision;
- **Convergence trajectories** — the fixed-point (TPS, CPI) iterates
  and their per-round deltas for every point, from
  ``RunManifest.round_deltas``;
- **Slowest phases** — the flame table across the whole sweep: spans
  aggregated by name over every point's trace, sorted by total wall
  time;
- **Metrics totals** — merged counters and timing summaries.

The flame table and the metrics totals come from :func:`fold_sweep`,
the one fold of a sweep's points, which
:class:`~repro.obs.snapshot.SweepSnapshot` reads as well.

Everything degrades gracefully: points without traces (cache hits) or
manifests simply drop out of the sections that need them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

if TYPE_CHECKING:
    from repro.experiments.records import ConfigResult
    from repro.experiments.report import ReportSection, RunReport
    from repro.obs.manifest import RunManifest


@dataclass
class PhaseAggregate:
    """One span name's totals across every trace of a sweep."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_wall_s: float = 0.0
    #: Wall time net of child spans, summed (the flamegraph "self").
    self_s: float = 0.0

    def fold(self, span) -> None:
        """Accumulate one :class:`~repro.obs.tracing.Span`."""
        self.calls += 1
        self.wall_s += span.duration_s
        self.cpu_s += span.cpu_s
        self.self_s += span.self_s
        self.max_wall_s = max(self.max_wall_s, span.duration_s)


def aggregate_phases(traces: Iterable[dict]) -> list[PhaseAggregate]:
    """Fold serialized span trees into per-phase totals, slowest first.

    Ties (identical totals, e.g. all-zero fake clocks in tests) break
    by name so the aggregation is deterministic.
    """
    by_name: dict[str, PhaseAggregate] = {}
    for payload in traces:
        if not payload:
            continue
        for _depth, span in Tracer.from_dict(payload).walk():
            agg = by_name.get(span.name)
            if agg is None:
                agg = by_name[span.name] = PhaseAggregate(span.name)
            agg.fold(span)
    return sorted(by_name.values(), key=lambda a: (-a.wall_s, a.name))


class PointInput(NamedTuple):
    """One point as :func:`fold_sweep` reads it.

    A live :class:`~repro.experiments.parallel.PointTelemetry` gives all
    five; a point rebuilt from a result cache or a sweep journal gives
    its key, result and manifest, and no trace or metrics.
    """

    key: str
    result: "ConfigResult"
    manifest: Optional["RunManifest"]
    trace: Optional[dict] = None
    metrics: Optional[dict] = None


@dataclass
class SweepFold:
    """A sweep's points folded once: the per-point inputs in input
    order, the flame table (slowest phase first) and one registry
    holding every point's metrics."""

    points: list[PointInput]
    phases: list[PhaseAggregate]
    registry: MetricsRegistry


def fold_sweep(points: Iterable) -> SweepFold:
    """Fold a sweep's points into one flame table and one registry.

    ``points`` holds what a traced
    :func:`repro.experiments.parallel.run_sweep` returns
    (:class:`~repro.experiments.parallel.PointTelemetry`) or
    :class:`PointInput` entries; ``None`` entries (skipped points) are
    dropped.
    """
    inputs = [point if isinstance(point, PointInput)
              else PointInput(point.spec.key(), point.result,
                              point.manifest, point.trace, point.metrics)
              for point in points if point is not None]
    registry = MetricsRegistry()
    for point in inputs:
        if point.metrics:
            registry.merge(point.metrics)
    return SweepFold(inputs, aggregate_phases(point.trace for point in inputs),
                     registry)


def _point_cost(manifest) -> tuple[Optional[float], Optional[float]]:
    if manifest is None:
        return None, None
    return manifest.wall_time_s, manifest.cpu_time_s


def summary_section(points: Sequence) -> "ReportSection":
    """Per-point headline numbers: throughput, CPI, cost, cache source."""
    from repro.experiments.report import ReportSection

    rows = []
    for point in points:
        result = point.result
        wall_s, cpu_s = _point_cost(point.manifest)
        rows.append([
            f"W={result.warehouses} C={result.clients} P={result.processors}",
            f"{result.tps:.0f}",
            f"{result.cpi.cpi:.2f}",
            f"{result.rates.l3_misses_per_instr * 1000:.2f}",
            f"{result.system.cpu_utilization:.0%}",
            f"{wall_s:.2f}" if wall_s is not None else "-",
            f"{cpu_s:.2f}" if cpu_s is not None else "-",
            "hit" if point.cache_hit else "computed",
        ])
    return ReportSection(
        "Sweep summary",
        ["point", "TPS", "CPI", "L3 MPI (/1000)", "util",
         "wall s", "cpu s", "cache"],
        rows,
        note="wall/cpu are the original computation's cost from the "
             "run manifest (cache hits show the stored values).")


def cache_section(points: Sequence) -> "ReportSection":
    """Cache hit/miss provenance: key, source, producing revision."""
    from repro.experiments.report import ReportSection

    rows = []
    for point in points:
        manifest = point.manifest
        rows.append([
            point.spec.key(),
            "hit" if point.cache_hit else "computed",
            manifest.git_rev[:12] if manifest is not None else "-",
            manifest.package_version if manifest is not None else "-",
            manifest.worker_count if manifest is not None else "-",
        ])
    return ReportSection(
        "Cache provenance",
        ["key", "source", "git rev", "version", "workers"], rows,
        note="'hit' points were served from the result cache; their "
             "manifest describes the run that originally computed them.")


def convergence_section(points: Sequence) -> "ReportSection":
    """Fixed-point trajectories: per-round TPS/CPI and deltas per point.

    ``points`` are telemetry points (a run report passes its one point);
    the rows come from each manifest's ``round_deltas``, and points
    without them are skipped.
    """
    from repro.experiments.report import ReportSection

    rows = []
    for point in points:
        manifest = point.manifest
        if manifest is None or not manifest.round_deltas:
            continue
        label = (f"W={point.result.warehouses} "
                 f"P={point.result.processors}")
        for record in manifest.round_deltas:
            tps_delta = record.get("tps_delta")
            cpi_delta = record.get("cpi_delta")
            rows.append([
                label,
                record.get("round", "-"),
                f"{record.get('tps', 0.0):.1f}",
                f"{record.get('cpi', 0.0):.3f}",
                f"{record.get('user_cpi', 0.0):.3f}",
                f"{record.get('os_cpi', 0.0):.3f}",
                f"{tps_delta:+.2f}" if tps_delta is not None else "-",
                f"{cpi_delta:+.4f}" if cpi_delta is not None else "-",
            ])
            label = ""  # repeat the point label only on its first row
    return ReportSection(
        "Fixed-point convergence",
        ["point", "round", "TPS", "CPI", "user CPI", "OS CPI", "ΔTPS",
         "ΔCPI"], rows,
        note="Iterates of the coupled DES ⇄ CPI fixed point; the "
             "shrinking deltas are what the ConvergenceGuard enforces.")


def phase_flame_section(aggregates: Sequence[PhaseAggregate]
                        ) -> "ReportSection":
    """The sweep-wide slowest-phase flame table."""
    from repro.experiments.report import ReportSection

    total_self = sum(agg.self_s for agg in aggregates) or 1.0
    rows = [[
        agg.name,
        agg.calls,
        f"{agg.wall_s * 1000:.1f}",
        f"{agg.self_s * 1000:.1f}",
        f"{agg.cpu_s * 1000:.1f}",
        f"{agg.max_wall_s * 1000:.1f}",
        f"{agg.self_s / total_self:.0%}",
    ] for agg in aggregates]
    return ReportSection(
        "Slowest phases across the sweep",
        ["phase", "calls", "wall ms", "self ms", "cpu ms", "max ms",
         "self share"], rows,
        note="Aggregated over every traced point; 'self' is wall time "
             "net of child spans, so the shares sum to ~100%.")


def degradation_section(events: Sequence[dict]) -> "ReportSection":
    """The sweep's degradation timeline: retries, timeouts, fallbacks.

    ``events`` is the pool's timeline,
    :attr:`repro.experiments.parallel.PoolExecutor.events` (including
    the driver's own events) — ordered dicts with ``seq``/``event``
    plus event-specific fields.
    An empty timeline renders as an empty-row section (dropped by
    :func:`build_sweep_report`).
    """
    from repro.experiments.report import ReportSection

    rows = []
    for event in events:
        detail = ", ".join(
            f"{name}={value}" for name, value in sorted(event.items())
            if name not in ("seq", "event", "key"))
        rows.append([
            event.get("seq", "-"),
            event.get("event", "-"),
            event.get("key", "-"),
            detail or "-",
        ])
    return ReportSection(
        "Degradation timeline",
        ["#", "event", "point", "detail"], rows,
        note="Driver and pool events in occurrence order: retries, "
             "straggler flags, timeouts, pool rebuilds and the serial "
             "fallback.  An absent section means the sweep ran clean.")


def metrics_section(registry: MetricsRegistry) -> "ReportSection":
    """Merged counters/gauges/timings of the sweep."""
    from repro.experiments.report import ReportSection

    rows: list[Sequence] = []
    for name in sorted(registry.counters):
        rows.append([name, "counter", f"{registry.counters[name]:g}"])
    for name in sorted(registry.gauges):
        rows.append([name, "gauge", f"{registry.gauges[name]:g}"])
    for name in sorted(registry.timings):
        stat = registry.timings[name]
        rows.append([
            name, "timing",
            f"n={stat['count']:g} total={stat['total_s']:.2f}s "
            f"min={stat['min_s']:.3f}s max={stat['max_s']:.3f}s",
        ])
    return ReportSection("Metrics totals", ["metric", "kind", "value"],
                         rows)


def build_sweep_report(points: Sequence,
                       title: Optional[str] = None,
                       events: Optional[Sequence[dict]] = None
                       ) -> "RunReport":
    """Assemble the sweep dashboard from telemetry points.

    ``points`` is what a traced
    :func:`repro.experiments.parallel.run_sweep` returns (``None``
    entries from skipped points are ignored).
    ``events``, the pool's timeline (``PoolExecutor.events``), render
    as the degradation timeline.  Sections whose inputs are absent
    everywhere (no traces, no manifests, no metrics, no events) are
    dropped rather than rendered empty.
    """
    from repro.experiments.report import RunReport

    points = [point for point in points if point is not None]
    if title is None:
        if points:
            first = points[0].result
            grid = ",".join(str(p.result.warehouses) for p in points)
            title = (f"Sweep report — {first.machine} P={first.processors} "
                     f"W∈{{{grid}}}")
        else:
            title = "Sweep report — (no points)"
    fold = fold_sweep(points)
    report = RunReport(title=title)
    if points:
        report.sections.append(summary_section(points))
        report.sections.append(cache_section(points))
    convergence = convergence_section(points)
    if convergence.rows:
        report.sections.append(convergence)
    if fold.phases:
        report.sections.append(phase_flame_section(fold.phases))
    if events:
        report.sections.append(degradation_section(events))
    registry = fold.registry
    if registry.counters or registry.gauges or registry.timings:
        report.sections.append(metrics_section(registry))
    return report


__all__ = [
    "PhaseAggregate",
    "PointInput",
    "SweepFold",
    "aggregate_phases",
    "fold_sweep",
    "build_sweep_report",
    "summary_section",
    "cache_section",
    "convergence_section",
    "degradation_section",
    "phase_flame_section",
    "metrics_section",
]
