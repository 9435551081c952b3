"""Command-line interface.

::

    python -m repro run -w 200 -p 4          # one configuration
    python -m repro run -w 200 --faults plan.json   # ... on degraded hardware
    python -m repro sweep -p 4 --chart       # warehouse sweep (+ ASCII plot)
    python -m repro sweep -p 4 --resume      # checkpointed (kill-safe) sweep
    python -m repro pivot -p 4 --metric cpi  # two-region fit and pivot
    python -m repro table1                   # the 90%-utilization search
    python -m repro variability -w 100 -p 4  # multi-seed error bars
    python -m repro report -w 100 -p 4       # traced run -> dashboard
    python -m repro report --sweep -p 4      # traced sweep -> one report
    python -m repro trace export -p 4 --grid 10,100   # Chrome trace JSON
    python -m repro trace validate t.json    # trace_event schema check
    python -m repro sweep -p 4 --snapshot base.json  # freeze a sweep
    python -m repro diff base.json cand.json # compare two sweeps
    python -m repro diff --workload odb-standard --workload banking
    python -m repro workload list            # shipped scenario library
    python -m repro workload show banking    # one scenario, spelled out
    python -m repro workload validate [spec.yaml ...]  # spec validation
    python -m repro docs regen [--check]     # regenerate doc blocks
    python -m repro clear-cache              # drop cached sweep results

``--fast`` trades fidelity for speed on any simulating command (the
same settings the test suite uses).  ``--faults plan.json`` injects a
:class:`repro.faults.FaultPlan` (degraded disks, log stalls, lock
storms, transient aborts) into ``run``, ``sweep``, and ``report``.
``--workload <name|path>`` selects a declarative workload
(:mod:`repro.workload`; a shipped scenario name or a YAML/JSON spec
file) on every simulating command — specs are provenance-tracked
through cache keys and run manifests.  Without it a command runs the
default ``odb-standard`` spec, so ``--workload odb-standard`` changes
nothing.  See ``docs/WORKLOADS.md`` for the authoring guide.
``--jobs N`` fans independent configuration runs across ``N`` worker
processes (default: one per CPU; results are bit-identical to serial,
see DESIGN.md §8); ``REPRO_SERIAL=1`` forces serial execution.
Every sweep runs through one driver (:mod:`repro.experiments.parallel`,
DESIGN.md §8): per-point retry with deterministic backoff, pool
self-healing on worker death, and the degradation timeline surfaced in
sweep reports.  ``--retries N`` and ``--point-timeout S`` (on ``sweep``
and ``report --sweep``) set its retry budget and per-point deadline.

``report`` runs one configuration traced, through the same
:func:`~repro.experiments.parallel.execute_point` pool workers run, and
renders the :class:`~repro.experiments.parallel.PointTelemetry` it
returns as a Markdown (optionally HTML) dashboard — run manifest,
result summary, fixed-point convergence trajectory, phase timings,
counter provenance, and the fault/retry timeline when ``--faults`` is
active — into ``results/reports/``.  ``report --sweep`` runs a
telemetry sweep instead and aggregates every point's
manifest/trace/metrics into one sweep dashboard (per-point cost, cache
provenance, convergence trajectories, sweep-wide flame table).
``sweep --snapshot``, ``report --sweep``, ``trace export`` and ``diff
--workload`` run their traced sweep through one helper, and every one
of them reads the points' telemetry the same way.
``trace export`` writes the same telemetry sweep as Chrome
``trace_event`` JSON (one track per point) for Perfetto /
``chrome://tracing``; ``trace validate`` checks a trace file against
the schema.  Set ``REPRO_METRICS_PATH=events.jsonl`` to stream
run-started/round-completed/run-finished records live from any
simulating command.
``sweep --snapshot PATH`` (and ``report --sweep --snapshot PATH``)
freezes the sweep as a schema-versioned, deterministic
:class:`~repro.obs.snapshot.SweepSnapshot`; ``diff`` compares two of
them — or sweep journals, result-cache directories, or two
``--workload`` scenarios swept on the spot — into a Markdown/HTML
dashboard of per-point metric deltas, each classified by its paper
direction, with ``--fail-on-regress`` exiting 3 on any regressed cell
so CI can gate on it (DESIGN.md §13).
``docs regen`` regenerates the generated blocks of EXPERIMENTS.md and
results/README.md from the committed ``results/*.txt`` artifacts;
``--check`` fails (exit 1) on drift, which CI runs as the doc-drift
gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.pivot import pivot_point, representative_configuration
from repro.experiments.charts import render_chart
from repro.experiments.configs import (
    DEFAULT_SETTINGS,
    FAST_SETTINGS,
    FULL_WAREHOUSE_GRID,
    RunnerSettings,
)
from repro.experiments.parallel import (
    PoolExecutor,
    RunSpec,
    SupervisorPolicy,
    execute_point,
    run_sweep,
)
from repro.experiments.records import slug
from repro.experiments.report import render_series, render_table
from repro.experiments.resilience import JournalOwnershipError, SweepJournal
from repro.experiments.runner import (
    default_cache,
    run_configuration,
    settings_fingerprint,
)
from repro.faults import FaultPlan
from repro.hw.machine import XEON_MP_QUAD, machine_by_name


def _settings(args) -> RunnerSettings:
    return FAST_SETTINGS if args.fast else DEFAULT_SETTINGS


def _machine(args):
    return machine_by_name(args.machine)


def _faults(args) -> Optional[FaultPlan]:
    if not getattr(args, "faults", None):
        return None
    try:
        return FaultPlan.load(args.faults)
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise SystemExit(f"cannot load fault plan {args.faults!r}: {error}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default=XEON_MP_QUAD.name,
                        help="machine preset (xeon-mp-quad, itanium2-quad)")
    parser.add_argument("--fast", action="store_true",
                        help="reduced-fidelity settings (test speed)")


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", default=None, metavar="PLAN.json",
                        help="JSON FaultPlan to inject (see repro.faults)")


def _add_workload(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default=None, metavar="NAME|PATH",
                        help="declarative workload: a shipped scenario "
                             "name (repro workload list) or a YAML/JSON "
                             "spec file (docs/WORKLOADS.md)")


def _workload(args):
    """The resolved :class:`~repro.workload.WorkloadSpec`, or ``None``."""
    reference = getattr(args, "workload", None)
    if not reference:
        return None
    from repro.workload import WorkloadSpecError, resolve_workload

    try:
        return resolve_workload(reference)
    except WorkloadSpecError as error:
        raise SystemExit(f"cannot load workload {reference!r}: {error}")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent points "
                             "(default: one per CPU; REPRO_SERIAL=1 "
                             "forces serial)")


def _add_supervision(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="per-point retry budget (default 3; see "
                             "DESIGN.md §8)")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="S",
                        help="wall-clock budget per dispatched point "
                             "attempt in seconds (stragglers are "
                             "cancelled and retried)")


def _policy(args) -> SupervisorPolicy:
    """The driver policy from ``--retries``/``--point-timeout``."""
    retries = getattr(args, "retries", None)
    return SupervisorPolicy(
        max_retries=retries if retries is not None else 3,
        point_timeout_s=getattr(args, "point_timeout", None))


def cmd_run(args) -> int:
    """``repro run``: one configuration, rendered as a small report."""
    faults = _faults(args)
    result = run_configuration(args.warehouses, args.processors,
                               clients=args.clients, machine=_machine(args),
                               settings=_settings(args), faults=faults,
                               workload=_workload(args))
    system = result.system
    rows = [
        ["TPS (measured / iron law)",
         f"{system.tps:.0f} / {result.tps_ironlaw:.0f}"],
        ["CPU utilization", f"{system.cpu_utilization:.1%}"],
        ["user / OS busy split",
         f"{system.user_busy_share:.0%} / {system.os_busy_share:.0%}"],
        ["IPX (user + OS)",
         f"{system.user_ipx / 1e6:.2f}M + {system.os_ipx / 1e6:.2f}M"],
        ["CPI (L3 share)",
         f"{result.cpi.cpi:.2f} ({result.cpi.l3_share:.0%})"],
        ["L3 MPI (per 1000 instr)",
         f"{result.rates.l3_misses_per_instr * 1000:.2f}"],
        ["bus utilization / IOQ cycles",
         f"{result.cpi.bus_utilization:.0%} / "
         f"{result.cpi.bus_transaction_time:.0f}"],
        ["disk reads / writes per txn",
         f"{system.reads_per_txn:.2f} / {system.data_writes_per_txn:.2f}"],
        ["context switches per txn",
         f"{system.context_switches_per_txn:.2f}"],
        ["redo per txn", f"{system.log_bytes_per_txn / 1024:.1f} KB"],
    ]
    if faults is not None:
        rows.append(["aborts / retries per txn",
                     f"{system.aborts_per_txn:.3f} / "
                     f"{system.retries_per_txn:.3f}"])
    print(render_table(
        f"{result.machine}: W={result.warehouses} C={result.clients} "
        f"P={result.processors}", ["metric", "value"], rows))
    return 0


def _parse_grid(text: Optional[str]) -> tuple[int, ...]:
    if not text:
        return FULL_WAREHOUSE_GRID
    try:
        grid = tuple(sorted({int(part) for part in text.split(",")}))
    except ValueError:
        raise SystemExit(f"bad --grid value: {text!r} (want e.g. 10,100,800)")
    if not grid or grid[0] <= 0:
        raise SystemExit("--grid needs positive warehouse counts")
    return grid


def _journal_path(args, faults: Optional[FaultPlan],
                  workload=None) -> Path:
    """Default journal location, keyed like the cache so unrelated sweeps
    never share a checkpoint file (and, like the cache key, the default
    ``odb-standard`` workload adds nothing to the name)."""
    from repro.workload import compiled_workload

    name = (f"{slug(_machine(args).name)}-p{args.processors}"
            f"-{settings_fingerprint(_settings(args))}")
    if faults is not None:
        name += f"-f{faults.fingerprint()}"
    compiled = compiled_workload(workload)
    if not compiled.is_default:
        name += f"-wl{compiled.fingerprint()}"
    root = Path(__file__).resolve().parents[2] / "results" / "sweeps"
    return root / f"{name}.jsonl"


#: Events a healthy sweep may emit; the rest are degradations.
_ROUTINE_EVENTS = frozenset({"point-straggling"})


def _print_degradation(executor: PoolExecutor) -> None:
    """A one-line degradation summary, when the sweep degraded."""
    degraded = [e for e in executor.events
                if e["event"] not in _ROUTINE_EVENTS]
    if degraded:
        kinds = ", ".join(sorted({e["event"] for e in degraded}))
        print(f"{executor.name}: {len(degraded)} degradation event(s) "
              f"({kinds})")


def _sweep(args, workload=None, faults: Optional[FaultPlan] = None, *,
           trace: bool = True, journal: Optional[SweepJournal] = None):
    """Run the ``--grid`` sweep at ``-p`` on a pool of ``--jobs`` workers.

    The one sweep every sweeping command runs (traced unless ``trace``
    is false); ``--retries``/``--point-timeout`` apply where the
    command has them.  Returns the points and the pool handle, whose
    ``events`` are the sweep's degradation timeline.
    """
    executor = PoolExecutor(args.jobs)
    points = run_sweep(_parse_grid(args.grid), args.processors,
                       machine=_machine(args), settings=_settings(args),
                       faults=faults, workload=workload, executor=executor,
                       policy=_policy(args), trace=trace, journal=journal)
    return points, executor


def cmd_sweep(args) -> int:
    """``repro sweep``: a warehouse sweep at fixed processor count.

    ``--snapshot`` traces every point and freezes the sweep as a
    :class:`~repro.obs.snapshot.SweepSnapshot`; ``--resume``/``--journal``
    checkpoint it; ``--jobs`` sizes the pool that runs it.
    """
    faults = _faults(args)
    workload = _workload(args)
    journal = None
    if args.journal:
        journal = SweepJournal(args.journal)
    elif args.resume:
        journal = SweepJournal(_journal_path(args, faults, workload))
    if journal is not None:
        done = len(journal.load())
        print(f"journal: {journal.path} ({done} point(s) already complete)")
    try:
        points, executor = _sweep(args, workload, faults,
                                  trace=bool(args.snapshot), journal=journal)
    except JournalOwnershipError as error:
        raise SystemExit(str(error))
    _print_degradation(executor)
    if args.snapshot:
        from repro.obs.snapshot import SweepSnapshot

        snapshot = SweepSnapshot.from_points(points)
        path = snapshot.save(args.snapshot)
        print(f"snapshot: {path} ({snapshot.describe()})")
    records = [point.result for point in points]
    xs = [r.warehouses for r in records]
    series = {
        "TPS": [r.tps for r in records],
        "CPI": [r.cpi.cpi for r in records],
        "L3 MPI (/1000)": [r.rates.l3_misses_per_instr * 1000
                           for r in records],
        "reads/txn": [r.system.reads_per_txn for r in records],
        "cs/txn": [r.system.context_switches_per_txn for r in records],
        "util": [r.system.cpu_utilization for r in records],
    }
    print(render_series(
        f"Sweep at {args.processors}P on {args.machine}",
        "Warehouses", xs, series))
    if args.chart:
        print()
        print(render_chart(f"CPI vs warehouses ({args.processors}P)",
                           xs, {"CPI": series["CPI"]},
                           y_label="CPI", x_label="warehouses"))
    return 0


def cmd_pivot(args) -> int:
    """``repro pivot``: pivot-point analysis over a warehouse sweep."""
    points, _executor = _sweep(args, _workload(args), trace=False)
    records = [point.result for point in points]
    xs = [r.warehouses for r in records]
    if args.metric == "cpi":
        ys = [r.cpi.cpi for r in records]
    else:
        ys = [r.rates.l3_misses_per_instr for r in records]
    analysis = pivot_point(xs, ys, metric=args.metric,
                           processors=args.processors)
    fit = analysis.fit
    print(render_table(
        f"Two-region fit of {args.metric.upper()} at {args.processors}P",
        ["region", "slope", "intercept", "r^2"],
        [["cached", f"{fit.cached.slope:.3e}", f"{fit.cached.intercept:.4f}",
          f"{fit.cached.r_squared:.3f}"],
         ["scaled", f"{fit.scaled.slope:.3e}", f"{fit.scaled.intercept:.4f}",
          f"{fit.scaled.r_squared:.3f}"]],
        note=(f"pivot at {analysis.pivot_warehouses:.0f} warehouses; "
              f"minimal representative configuration: "
              f"{representative_configuration(analysis)}W"
              if analysis.has_pivot else "segments are parallel: no pivot")))
    return 0


def cmd_table1(args) -> int:
    """``repro table1``: the saturation-client search (paper Table 1)."""
    from repro.experiments import exp_table1

    result = exp_table1.run(machine=_machine(args), settings=_settings(args),
                            jobs=args.jobs)
    print(exp_table1.render(result))
    return 0


def cmd_variability(args) -> int:
    """``repro variability``: seed-sensitivity study of one point."""
    from repro.experiments.variability import measure_variability

    report = measure_variability(args.warehouses, args.processors,
                                 seeds=tuple(range(1, args.seeds + 1)),
                                 machine=_machine(args),
                                 settings=_settings(args))
    rows = []
    for name in sorted(report.metrics):
        metric = report.metrics[name]
        low, high = metric.confidence_interval(0.95)
        rows.append([name, f"{metric.mean:.4g}", f"{metric.stdev:.3g}",
                     f"{metric.coefficient_of_variation:.2%}",
                     f"[{low:.4g}, {high:.4g}]"])
    worst, cv = report.worst_cv()
    print(render_table(
        f"Variability across {len(report.seeds)} seeds: "
        f"W={args.warehouses} P={args.processors}",
        ["metric", "mean", "stdev", "CV", "95% CI"],
        rows, note=f"noisiest metric: {worst} (CV {cv:.1%})"))
    return 0


def cmd_clear_cache(_args) -> int:
    """``repro clear-cache``: drop cached results (and manifests)."""
    removed = default_cache().clear()
    print(f"removed {removed} cached result(s)")
    return 0


def _reports_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "results" / "reports"


def cmd_report(args) -> int:
    """``repro report``: traced run (or ``--sweep``) -> dashboard."""
    from repro.experiments.report import build_run_report, write_run_report

    if args.sweep:
        return _report_sweep(args)
    if args.warehouses is None:
        raise SystemExit("repro report needs -w/--warehouses "
                         "(or --sweep for a sweep-level report)")
    machine = _machine(args)
    spec = RunSpec(args.warehouses, args.processors, clients=args.clients,
                   machine=machine, settings=_settings(args),
                   faults=_faults(args), workload=_workload(args))
    # A fresh (uncached) run: the dashboard reports *this* run's phase
    # timings, not the wall time of a cache load.
    point = execute_point(spec, None, False, trace=True)
    result = point.result
    out = Path(args.out) if args.out else _reports_dir()
    stem = (f"report_{slug(machine.name)}_w{result.warehouses}"
            f"_c{result.clients}_p{result.processors}")
    for path in write_run_report(build_run_report(point), out, stem,
                                 html=args.html):
        print(path)
    return 0


def _report_sweep(args) -> int:
    """The ``repro report --sweep`` path: one aggregated dashboard."""
    from repro.experiments.report import write_run_report
    from repro.obs.sweep_report import build_sweep_report

    points, executor = _sweep(args, _workload(args), _faults(args))
    if args.snapshot:
        from repro.obs.snapshot import SweepSnapshot

        snapshot = SweepSnapshot.from_points(points)
        print(f"snapshot: {snapshot.save(args.snapshot)} "
              f"({snapshot.describe()})")
    report = build_sweep_report(points, events=executor.events)
    out = Path(args.out) if args.out else _reports_dir()
    stem = (f"sweep_{slug(_machine(args).name)}_p{args.processors}"
            f"_w{'-'.join(str(w) for w in _parse_grid(args.grid))}")
    for path in write_run_report(report, out, stem, html=args.html):
        print(path)
    return 0


def _traces_dir() -> Path:
    return Path(__file__).resolve().parents[2] / "results" / "traces"


def cmd_trace(args) -> int:
    """``repro trace``: export a sweep as Chrome trace JSON / validate."""
    from repro.obs.trace_export import (
        tracks_from_points,
        validate_chrome_trace_file,
        write_chrome_trace,
    )

    if args.action == "validate":
        if not args.file:
            raise SystemExit("repro trace validate needs a trace file")
        problems = validate_chrome_trace_file(args.file)
        for problem in problems:
            print(problem)
        if problems:
            print(f"{len(problems)} trace schema problem(s)")
            return 1
        print(f"{args.file}: valid trace_event JSON")
        return 0

    points, _executor = _sweep(args, _workload(args), _faults(args))
    tracks = tracks_from_points(points)
    if not tracks:
        raise SystemExit("no spans were recorded (all points were "
                         "cache hits?); try REPRO_NO_CACHE=1")
    if args.out:
        out = Path(args.out)
    else:
        grid = _parse_grid(args.grid)
        out = (_traces_dir()
               / (f"sweep_{slug(_machine(args).name)}_p{args.processors}"
                  f"_w{'-'.join(str(w) for w in grid)}.trace.json"))
    print(write_chrome_trace(tracks, out))
    print(f"{len(tracks)} track(s); load in https://ui.perfetto.dev "
          "or chrome://tracing")
    return 0


def _workload_snapshot(args, reference):
    """Run one workload's sweep and freeze it (``repro diff --workload``)."""
    from repro.obs.snapshot import SweepSnapshot
    from repro.workload import WorkloadSpecError, resolve_workload

    try:
        workload = resolve_workload(reference)
    except WorkloadSpecError as error:
        raise SystemExit(f"cannot load workload {reference!r}: {error}")
    points, _executor = _sweep(args, workload)
    print(f"swept workload {workload.name}: {len(points)} point(s)")
    return SweepSnapshot.from_points(points,
                                     source=f"workload:{workload.name}")


def cmd_diff(args) -> int:
    """``repro diff``: compare two sweep snapshots (or two workloads).

    Exit codes: 0 on success (even with differences), 1 on load/usage
    errors, and :data:`repro.obs.diff.REGRESSION_EXIT_CODE` (3) when
    ``--fail-on-regress`` is set and any metric cell regressed — the
    code CI gates on.
    """
    from repro.experiments.report import write_run_report
    from repro.obs.diff import build_diff_report, diff_snapshots
    from repro.obs.snapshot import SnapshotError, resolve_snapshot

    workloads = args.workload or []
    if workloads:
        if len(workloads) != 2 or args.baseline or args.candidate:
            raise SystemExit("workload mode takes exactly two --workload "
                             "flags and no positional snapshots")
        baseline = _workload_snapshot(args, workloads[0])
        candidate = _workload_snapshot(args, workloads[1])
    else:
        if not args.baseline or not args.candidate:
            raise SystemExit("repro diff needs <baseline> <candidate> — "
                             "each a snapshot file, sweep journal, or "
                             "cache directory — or two --workload flags")
        # A journal's manifests come from the cache its sweep wrote:
        # the one the CLI's sweeps write under this environment.
        cache_dir = default_cache().directory
        try:
            baseline = resolve_snapshot(args.baseline, cache_dir)
            candidate = resolve_snapshot(args.candidate, cache_dir)
        except SnapshotError as error:
            raise SystemExit(str(error))
    diff = diff_snapshots(baseline, candidate)
    report = build_diff_report(diff, unchanged=args.unchanged)
    out = Path(args.out) if args.out else _reports_dir()
    stem = f"diff_{baseline.checksum()}_vs_{candidate.checksum()}"
    for path in write_run_report(report, out, stem, html=args.html):
        print(path)
    counts = diff.verdict_counts()
    summary = ", ".join(f"{verdict}={count}"
                        for verdict, count in counts.items() if count)
    print(f"verdicts: {summary or 'no metric cells compared'}")
    if diff.identical:
        print("canonical payloads are identical")
    code = diff.exit_code(args.fail_on_regress)
    if code:
        print(f"{len(diff.regressions)} regressed cell(s): exit {code}")
    return code


def cmd_workload(args) -> int:
    """``repro workload list|show|validate``: the scenario library."""
    from repro.workload import (
        WorkloadSpecError,
        available_workloads,
        compile_workload,
        load_source,
        load_workload,
        resolve_workload,
        scenario_sources,
    )

    if args.action == "list":
        rows = []
        for name, spec in sorted(available_workloads().items()):
            rows.append([
                name,
                str(len(spec.transactions)),
                str(len(spec.phases or ())),
                "odb" if spec.segments is None else str(len(spec.segments)),
                spec.fingerprint(),
                spec.description.split(":")[0].strip() or "-",
            ])
        print(render_table(
            "Shipped workload scenarios (--workload NAME)",
            ["name", "txns", "phases", "segments", "fingerprint", "summary"],
            rows,
            note="authoring guide: docs/WORKLOADS.md; validate a custom "
                 "spec with `repro workload validate path/to/spec.yaml`"))
        return 0

    if args.action == "show":
        if len(args.specs) != 1:
            raise SystemExit("repro workload show needs exactly one "
                             "workload name or spec file")
        try:
            spec = resolve_workload(args.specs[0])
        except WorkloadSpecError as error:
            raise SystemExit(str(error))
        compiled = compile_workload(spec)
        total = sum(t.weight for t in spec.transactions)
        rows = [[t.name, f"{t.weight / total:.1%}",
                 f"{t.user_instructions / 1e6:.2f}M",
                 f"{t.redo_bytes / 1024:.1f} KB",
                 ", ".join(t.locks) or "-",
                 str(len(t.touches))]
                for t in spec.transactions]
        print(render_table(
            f"workload {spec.name} ({spec.fingerprint()})",
            ["transaction", "share", "user instr", "redo", "locks",
             "touches"],
            rows, note=spec.description or None))
        if spec.segments is not None:
            print("segments: " + ", ".join(
                f"{s.name}={s.units or int(s.bytes)}"
                f"{'u' if s.units else 'B'}"
                f"{'' if s.per_warehouse else ' (global)'}"
                for s in spec.segments))
        if spec.phases:
            for phase in spec.phases:
                overrides = ", ".join(f"{name}={weight}"
                                      for name, weight in phase.weights)
                print(f"phase {phase.name}: {phase.duration_s}s "
                      f"[{overrides or 'base weights'}]")
        if compiled.is_default:
            print("(the default workload: what runs without --workload)")
        return 0

    # validate: explicit spec files, or the whole shipped library.
    failures = 0
    if args.specs:
        targets = [Path(ref) for ref in args.specs]
    else:
        targets = list(scenario_sources().values())
        print(f"validating the shipped library "
              f"({len(targets)} scenario(s))")
    for target in targets:
        try:
            spec = (load_workload(target) if args.specs
                    else load_source(target))
            compiled = compile_workload(spec)
            # Exercise the full compile path, including block-space
            # construction for custom layouts, at a nominal scale.
            compiled.build_block_space(2, 64 * 1024)
            if compiled.phases:
                compiled.build_mix(clock=lambda: 0.0)
            else:
                compiled.build_mix()
        except WorkloadSpecError as error:
            print(f"FAIL {error}")
            failures += 1
            continue
        extra = " (default)" if compiled.is_default else ""
        print(f"ok   {spec.name}: {len(spec.transactions)} txns, "
              f"{len(spec.phases or ())} phase(s), "
              f"fingerprint {spec.fingerprint()}{extra}")
    if failures:
        print(f"{failures} invalid spec(s)")
        return 1
    return 0


def cmd_docs(args) -> int:
    """``repro docs regen``: refresh (or check) generated doc blocks."""
    from repro.experiments.docs import DocDriftError, regen_all

    try:
        drift = regen_all(check=args.check)
    except DocDriftError as error:
        raise SystemExit(str(error))
    if not drift:
        print("docs are in sync with the results/ artifacts")
        return 0
    for name, blocks in sorted(drift.items()):
        verb = "drifted" if args.check else "regenerated"
        print(f"{name}: {verb} block(s): {', '.join(blocks)}")
    if args.check:
        print("doc drift detected; run `python -m repro docs regen`")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scaling and Characterizing Database "
                    "Workloads' (MICRO 2003)")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one configuration")
    run_parser.add_argument("-w", "--warehouses", type=int, required=True)
    run_parser.add_argument("-p", "--processors", type=int, default=4)
    run_parser.add_argument("-c", "--clients", type=int, default=None,
                            help="default: the Table 1 value for (W, P)")
    _add_common(run_parser)
    _add_faults(run_parser)
    _add_workload(run_parser)
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = commands.add_parser("sweep", help="warehouse sweep")
    sweep_parser.add_argument("-p", "--processors", type=int, default=4)
    sweep_parser.add_argument("--grid", default=None,
                              help="comma-separated warehouse counts")
    sweep_parser.add_argument("--chart", action="store_true",
                              help="also draw an ASCII CPI chart")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="checkpoint each completed point and "
                                   "resume a killed sweep from its journal")
    sweep_parser.add_argument("--journal", default=None, metavar="PATH",
                              help="explicit journal file (implies --resume)")
    sweep_parser.add_argument("--snapshot", default=None, metavar="PATH",
                              help="freeze the sweep as a diffable "
                                   "SweepSnapshot artifact (repro diff; "
                                   "DESIGN.md §13)")
    _add_common(sweep_parser)
    _add_faults(sweep_parser)
    _add_workload(sweep_parser)
    _add_jobs(sweep_parser)
    _add_supervision(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    pivot_parser = commands.add_parser("pivot",
                                       help="two-region fit and pivot point")
    pivot_parser.add_argument("-p", "--processors", type=int, default=4)
    pivot_parser.add_argument("--metric", choices=("cpi", "mpi"),
                              default="cpi")
    pivot_parser.add_argument("--grid", default=None)
    _add_common(pivot_parser)
    _add_workload(pivot_parser)
    _add_jobs(pivot_parser)
    pivot_parser.set_defaults(func=cmd_pivot)

    table1_parser = commands.add_parser(
        "table1", help="clients for 90%% CPU utilization")
    _add_common(table1_parser)
    _add_jobs(table1_parser)
    table1_parser.set_defaults(func=cmd_table1)

    var_parser = commands.add_parser(
        "variability", help="multi-seed measurement variability")
    var_parser.add_argument("-w", "--warehouses", type=int, required=True)
    var_parser.add_argument("-p", "--processors", type=int, default=4)
    var_parser.add_argument("--seeds", type=int, default=5)
    _add_common(var_parser)
    var_parser.set_defaults(func=cmd_variability)

    report_parser = commands.add_parser(
        "report", help="traced run (or --sweep) -> dashboard")
    report_parser.add_argument("-w", "--warehouses", type=int, default=None,
                               help="required unless --sweep")
    report_parser.add_argument("-p", "--processors", type=int, default=4)
    report_parser.add_argument("-c", "--clients", type=int, default=None,
                               help="default: the Table 1 value for (W, P)")
    report_parser.add_argument("--sweep", action="store_true",
                               help="aggregate a whole warehouse sweep "
                                    "into one report")
    report_parser.add_argument("--grid", default=None,
                               help="warehouse grid for --sweep "
                                    "(comma-separated)")
    report_parser.add_argument("--html", action="store_true",
                               help="also write an HTML dashboard")
    report_parser.add_argument("--out", default=None, metavar="DIR",
                               help="output directory "
                                    "(default: results/reports/)")
    report_parser.add_argument("--snapshot", default=None, metavar="PATH",
                               help="with --sweep: also freeze the sweep "
                                    "as a diffable SweepSnapshot artifact")
    _add_common(report_parser)
    _add_faults(report_parser)
    _add_workload(report_parser)
    _add_jobs(report_parser)
    _add_supervision(report_parser)
    report_parser.set_defaults(func=cmd_report)

    trace_parser = commands.add_parser(
        "trace", help="Chrome trace_event export of a telemetry sweep")
    trace_parser.add_argument("action", choices=("export", "validate"),
                              help="export: run a sweep and write trace "
                                   "JSON; validate: schema-check a file")
    trace_parser.add_argument("file", nargs="?", default=None,
                              help="trace file (validate only)")
    trace_parser.add_argument("-p", "--processors", type=int, default=4)
    trace_parser.add_argument("--grid", default=None,
                              help="comma-separated warehouse counts")
    trace_parser.add_argument("--out", default=None, metavar="PATH",
                              help="output trace file "
                                   "(default: results/traces/*.trace.json)")
    _add_common(trace_parser)
    _add_faults(trace_parser)
    _add_workload(trace_parser)
    _add_jobs(trace_parser)
    trace_parser.set_defaults(func=cmd_trace)

    diff_parser = commands.add_parser(
        "diff", help="compare two sweep snapshots (CI regression gate)")
    diff_parser.add_argument("baseline", nargs="?", default=None,
                             help="baseline: snapshot file, sweep journal "
                                  "(.jsonl), or result-cache directory")
    diff_parser.add_argument("candidate", nargs="?", default=None,
                             help="candidate: snapshot file, sweep journal "
                                  "(.jsonl), or result-cache directory")
    diff_parser.add_argument("--workload", action="append", default=None,
                             metavar="NAME|PATH",
                             help="give twice to sweep and diff two "
                                  "workload scenarios side by side "
                                  "(instead of positional snapshots)")
    diff_parser.add_argument("-p", "--processors", type=int, default=4,
                             help="processor count for --workload sweeps")
    diff_parser.add_argument("--grid", default=None,
                             help="warehouse grid for --workload sweeps "
                                  "(comma-separated)")
    diff_parser.add_argument("--fail-on-regress", action="store_true",
                             help="exit 3 when any metric cell regressed "
                                  "(the CI gate)")
    diff_parser.add_argument("--unchanged", action="store_true",
                             help="include unchanged cells in the delta "
                                  "table (default: movement only)")
    diff_parser.add_argument("--html", action="store_true",
                             help="also write an HTML diff report")
    diff_parser.add_argument("--out", default=None, metavar="DIR",
                             help="output directory "
                                  "(default: results/reports/)")
    _add_common(diff_parser)
    _add_jobs(diff_parser)
    diff_parser.set_defaults(func=cmd_diff)

    workload_parser = commands.add_parser(
        "workload", help="list/show/validate declarative workloads")
    workload_parser.add_argument(
        "action", choices=("list", "show", "validate"),
        help="list: shipped scenarios; show: one spec spelled out; "
             "validate: check spec files (default: the whole library)")
    workload_parser.add_argument(
        "specs", nargs="*", default=[],
        help="workload name (show) or spec files (validate)")
    workload_parser.set_defaults(func=cmd_workload)

    docs_parser = commands.add_parser(
        "docs", help="regenerate doc blocks from results/ artifacts")
    docs_parser.add_argument("action", choices=("regen",),
                             help="regen: rewrite the generated blocks")
    docs_parser.add_argument("--check", action="store_true",
                             help="fail (exit 1) on drift instead of "
                                  "rewriting (the CI doc-drift gate)")
    docs_parser.set_defaults(func=cmd_docs)

    cache_parser = commands.add_parser("clear-cache",
                                       help="drop cached sweep results")
    cache_parser.set_defaults(func=cmd_clear_cache)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse arguments and dispatch to a subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
