"""Observability: tracing, manifests, provenance, metrics, telemetry.

The paper's contribution is *measurement* — EMON counter sweeps
decomposed into IPX/CPI components — so the reproduction's own runs
must not be black boxes.  This package makes every run observable on
three axes:

- :mod:`repro.obs.tracing` — span-based phase tracing (trace
  generation, DES loop, fixed-point rounds) with nesting, counters and
  per-phase wall/CPU timings.  **Off by default and zero-overhead when
  off**: hot paths check one module-level flag, and a disabled run is
  bit-identical to a build without this package (pinned by the golden
  tests).
- :mod:`repro.obs.manifest` — a :class:`~repro.obs.manifest.RunManifest`
  (config hash, seed, package version, git revision, wall/CPU time,
  worker count) attached to every runner/parallel run and persisted
  beside the cached result.
- :mod:`repro.obs.provenance` — an
  :class:`~repro.obs.provenance.EmonProvenance` record mapping each
  reported counter (IPX, CPI components, MPI, bus occupancy) back to
  the raw :mod:`repro.emon` events and Table 3 stall-cost entries that
  produced it, mirroring the paper's Tables 2-4 derivations.
- :mod:`repro.obs.metrics` — a lightweight
  :class:`~repro.obs.metrics.MetricsRegistry` (counters/gauges/timings)
  the runner, engine, cache, and fault layers publish into, plus an
  optional JSONL event stream (``REPRO_METRICS_PATH``) for tailing
  long sweeps live.  Off by default, same zero-overhead rules as
  tracing.
- :mod:`repro.obs.trace_export` — Chrome ``trace_event`` JSON export
  of span trees (one track per sweep point), loadable in Perfetto or
  ``chrome://tracing``, with a schema validator for CI.
- :mod:`repro.obs.sweep_report` — aggregation of a whole sweep's
  manifests/traces/metrics into one dashboard: per-point cost, cache
  provenance, fixed-point convergence trajectories, and the
  slowest-phase flame table.
- :mod:`repro.obs.snapshot` — a schema-versioned, deterministic
  :class:`~repro.obs.snapshot.SweepSnapshot` artifact freezing a whole
  sweep (per-point metrics, flame tables, registry totals, provenance)
  for later comparison; writable from live sweeps and reconstructable
  from cache/journal directories.
- :mod:`repro.obs.diff` — structured comparison of two snapshots
  (grid alignment, per-metric deltas under a threshold policy,
  flame/counter/provenance diffs) behind ``repro diff`` and its
  ``--fail-on-regress`` CI gate.

Typical use::

    from repro import obs

    tracer = obs.enable_tracing()
    result = run_configuration(100, 4, use_cache=False)
    obs.disable_tracing()
    for depth, span in tracer.walk():
        print("  " * depth, span.name, span.duration_s)

or via the CLI: ``python -m repro report -w 100 -p 4``.
"""

from __future__ import annotations

from repro.obs.diff import (
    REGRESSION_EXIT_CODE,
    SnapshotDiff,
    ThresholdPolicy,
    build_diff_report,
    diff_snapshots,
)
from repro.obs.manifest import MANIFEST_VERSION, RunManifest, git_revision
from repro.obs.metrics import (
    MetricsRegistry,
    current_registry,
    disable_metrics,
    enable_metrics,
)
from repro.obs.provenance import (
    CounterProvenance,
    EmonProvenance,
    emon_provenance,
)
from repro.obs.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SweepSnapshot,
    point_key,
    resolve_snapshot,
)
from repro.obs.sweep_report import (
    SweepTelemetry,
    aggregate_phases,
    build_sweep_report,
)
from repro.obs.trace_export import (
    TraceTrack,
    chrome_trace,
    chrome_trace_json,
    tracks_from_points,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "REGRESSION_EXIT_CODE",
    "SnapshotDiff",
    "ThresholdPolicy",
    "build_diff_report",
    "diff_snapshots",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SweepSnapshot",
    "point_key",
    "resolve_snapshot",
    "MANIFEST_VERSION",
    "RunManifest",
    "git_revision",
    "MetricsRegistry",
    "current_registry",
    "disable_metrics",
    "enable_metrics",
    "CounterProvenance",
    "EmonProvenance",
    "emon_provenance",
    "SweepTelemetry",
    "aggregate_phases",
    "build_sweep_report",
    "TraceTrack",
    "chrome_trace",
    "chrome_trace_json",
    "tracks_from_points",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "Span",
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "span",
    "tracing_enabled",
]
