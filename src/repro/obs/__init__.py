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
  slowest-phase flame table.  Its :func:`~repro.obs.sweep_report.fold_sweep`
  is the one fold of a sweep's points, which snapshots read too.
- :mod:`repro.obs.snapshot` — a schema-versioned, deterministic
  :class:`~repro.obs.snapshot.SweepSnapshot` artifact freezing a whole
  sweep (per-point metrics, flame tables, registry totals, provenance)
  for later comparison; writable from live sweeps and reconstructable
  from cache/journal directories.
- :mod:`repro.obs.diff` — structured comparison of two snapshots
  (grid alignment, per-metric deltas under a threshold policy,
  flame/counter/provenance diffs) behind ``repro diff`` and its
  ``--fail-on-regress`` CI gate.

Every consumer of a run's telemetry — the run report, the sweep
report, the snapshot and the Chrome trace — reads the
:class:`~repro.experiments.parallel.PointTelemetry` a point run returns.
This package's ``__init__`` imports nothing, so loading
:mod:`repro.obs.metrics` on the run path loads no other submodule.

Typical use::

    from repro.experiments.parallel import RunSpec, execute_point
    from repro.obs.tracing import Tracer

    point = execute_point(RunSpec(100, 4), None, False, trace=True)
    for depth, span in Tracer.from_dict(point.trace).walk():
        print("  " * depth, span.name, span.duration_s)

or via the CLI: ``python -m repro report -w 100 -p 4``.
"""
