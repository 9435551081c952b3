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

Everything degrades gracefully: points without traces (cache hits) or
manifests simply drop out of the sections that need them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

if TYPE_CHECKING:
    from repro.experiments.report import ReportSection, RunReport


@dataclass
class PhaseAggregate:
    """One span name's totals across every trace of a sweep.

    ``worker`` scopes the row to the fabric worker that produced the
    spans (empty for local execution): remote workers' clocks are not
    comparable to the coordinator's, so their spans aggregate under
    their own track instead of merging into one misleading total.
    """

    name: str
    worker: str = ""
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


def aggregate_phases(traces: Iterable[dict],
                     workers: Optional[Iterable[str]] = None
                     ) -> list[PhaseAggregate]:
    """Fold serialized span trees into per-phase totals, slowest first.

    ``workers``, when given, labels each trace with the fabric worker
    that produced it; spans then aggregate per (worker, phase) so a
    distributed sweep's flame table keeps each worker's time on its own
    track.  Without it (or with empty labels) everything folds into the
    local track, exactly as before.  Ties (identical totals, e.g.
    all-zero fake clocks in tests) break by worker then name so the
    aggregation is deterministic.
    """
    by_track: dict[tuple[str, str], PhaseAggregate] = {}
    labels = list(workers) if workers is not None else None
    for index, payload in enumerate(traces):
        if not payload:
            continue
        worker = (labels[index]
                  if labels is not None and index < len(labels) else "")
        for _depth, span in Tracer.from_dict(payload).walk():
            track = (worker, span.name)
            agg = by_track.get(track)
            if agg is None:
                agg = by_track[track] = PhaseAggregate(span.name,
                                                       worker=worker)
            agg.fold(span)
    return sorted(by_track.values(),
                  key=lambda a: (-a.wall_s, a.worker, a.name))


@dataclass
class SweepTelemetry:
    """The aggregated view of one telemetry sweep."""

    points: Sequence = field(default_factory=list)

    def merged_metrics(self) -> MetricsRegistry:
        """All points' metrics folded into one registry."""
        registry = MetricsRegistry()
        for point in self.points:
            if getattr(point, "metrics", None):
                registry.merge(point.metrics)
        return registry

    def phase_aggregates(self) -> list[PhaseAggregate]:
        """The sweep-wide flame table rows (slowest phase first).

        Fabric points carry the producing worker's id; their spans
        aggregate under that worker's track rather than merging into
        the coordinator's.
        """
        return aggregate_phases(
            [getattr(point, "trace", None) or {} for point in self.points],
            workers=[getattr(point, "worker", "") or ""
                     for point in self.points])


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
    """Fixed-point trajectories: per-round TPS/CPI and deltas per point."""
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
                f"{tps_delta:+.2f}" if tps_delta is not None else "-",
                f"{cpi_delta:+.4f}" if cpi_delta is not None else "-",
            ])
            label = ""  # repeat the point label only on its first row
    return ReportSection(
        "Fixed-point convergence",
        ["point", "round", "TPS", "CPI", "ΔTPS", "ΔCPI"], rows,
        note="Iterates of the coupled DES ⇄ CPI fixed point; shrinking "
             "deltas are the convergence the guard enforces.")


def phase_flame_section(aggregates: Sequence[PhaseAggregate]
                        ) -> "ReportSection":
    """The sweep-wide slowest-phase flame table."""
    from repro.experiments.report import ReportSection

    total_self = sum(agg.self_s for agg in aggregates) or 1.0
    distributed = any(agg.worker for agg in aggregates)
    rows = []
    for agg in aggregates:
        row = [
            agg.name,
            agg.calls,
            f"{agg.wall_s * 1000:.1f}",
            f"{agg.self_s * 1000:.1f}",
            f"{agg.cpu_s * 1000:.1f}",
            f"{agg.max_wall_s * 1000:.1f}",
            f"{agg.self_s / total_self:.0%}",
        ]
        if distributed:
            row.insert(1, agg.worker or "local")
        rows.append(row)
    headers = ["phase", "calls", "wall ms", "self ms", "cpu ms",
               "max ms", "self share"]
    note = ("Aggregated over every traced point; 'self' is wall time "
            "net of child spans, so the shares sum to ~100%.")
    if distributed:
        headers.insert(1, "worker")
        note += (" Rows are per fabric worker: remote clocks are not "
                 "comparable across hosts, so each worker keeps its "
                 "own track.")
    return ReportSection(
        "Slowest phases across the sweep", headers, rows, note=note)


def degradation_section(events: Sequence[dict]) -> "ReportSection":
    """The sweep's degradation timeline: retries, timeouts, fallbacks.

    ``events`` is the executor's timeline,
    :attr:`repro.experiments.parallel.Executor.events` (a
    :class:`~repro.experiments.parallel.PoolExecutor` or
    :class:`~repro.fabric.coordinator.FabricCoordinator`, including the
    driver's own events) — ordered dicts with ``seq``/``event`` plus
    event-specific fields.
    An empty timeline renders as an empty-row section (dropped by
    :func:`build_sweep_report`).
    """
    from repro.experiments.report import ReportSection

    rows = []
    for event in events:
        detail = ", ".join(
            f"{name}={value}" for name, value in sorted(event.items())
            if name not in ("seq", "event", "key", "shard", "worker"))
        rows.append([
            event.get("seq", "-"),
            event.get("event", "-"),
            event.get("key", event.get("source", "-")),
            event.get("shard",
                      event.get("worker", event.get("target", "-"))),
            detail or "-",
        ])
    return ReportSection(
        "Degradation timeline",
        ["#", "event", "point", "executor", "detail"], rows,
        note="Driver, pool and fabric events in occurrence order: "
             "retries, straggler flags, timeouts, pool rebuilds, "
             "fallbacks, worker losses and quarantines.  The executor "
             "column names the fabric worker involved.  An absent "
             "section means the sweep ran clean.")


def worker_section(workers: Sequence) -> "ReportSection":
    """Per-worker fabric health: state, completions, failures.

    ``workers`` is :meth:`repro.fabric.FabricCoordinator.worker_health`
    — the fleet's end-of-sweep snapshot, one row per worker, after the
    coordinator ran a sweep under
    :func:`repro.experiments.parallel.run_points`.
    """
    from repro.experiments.report import ReportSection

    rows = []
    for worker in workers:
        rows.append([
            worker.name,
            worker.host or "-",
            worker.pid if worker.pid is not None else "-",
            worker.state,
            worker.completed,
            worker.failures,
            worker.duplicates,
            getattr(worker, "reconnects", 0),
            getattr(worker, "revalidated", 0),
        ])
    return ReportSection(
        "Fabric workers",
        ["worker", "host", "pid", "state", "completed", "failures",
         "duplicates", "reconnects", "revalidated"],
        rows,
        note="End-of-sweep worker fleet health; 'duplicates' counts "
             "completions deduplicated by the coordinator (re-leased "
             "points finishing twice), 'reconnects' counts sessions "
             "resumed over a fresh channel, and 'revalidated' counts "
             "in-flight leases re-granted on resume instead of "
             "double-executed (fabric.auth.rejected / "
             "fabric.reconnect.attempts / fabric.leases.revalidated "
             "in the metrics section).")


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
                       events: Optional[Sequence[dict]] = None,
                       workers: Optional[Sequence] = None
                       ) -> "RunReport":
    """Assemble the sweep dashboard from telemetry points.

    ``points`` is what a traced
    :func:`repro.experiments.parallel.run_sweep` returns (``None``
    entries from skipped points are ignored).
    ``events``, an executor's timeline (``Executor.events``), render
    as the degradation timeline; ``workers`` (fabric
    ``worker_health()`` snapshots) render as the fleet-health section.
    Sections whose inputs are absent everywhere (no traces, no
    manifests, no metrics, no events, no workers) are dropped rather
    than rendered empty.
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
    telemetry = SweepTelemetry(points)
    report = RunReport(title=title)
    if points:
        report.sections.append(summary_section(points))
        report.sections.append(cache_section(points))
    convergence = convergence_section(points)
    if convergence.rows:
        report.sections.append(convergence)
    aggregates = telemetry.phase_aggregates()
    if aggregates:
        report.sections.append(phase_flame_section(aggregates))
    if events:
        report.sections.append(degradation_section(events))
    if workers:
        report.sections.append(worker_section(workers))
    registry = telemetry.merged_metrics()
    if registry.counters or registry.gauges or registry.timings:
        report.sections.append(metrics_section(registry))
    return report


__all__ = [
    "PhaseAggregate",
    "SweepTelemetry",
    "aggregate_phases",
    "build_sweep_report",
    "summary_section",
    "cache_section",
    "convergence_section",
    "degradation_section",
    "phase_flame_section",
    "metrics_section",
    "worker_section",
]
