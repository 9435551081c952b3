"""One workload run in a fresh interpreter: the process ``run.py`` spawns.

``python session.py --workload NAME --seed N --seconds S --trace 0|1``

1. **Timed pass.**  A closed loop from this process: the workload's
   executor starts the next step only after the previous one returned,
   and a step after the second starts only if, at the mean step time so
   far, it would end within ``--seconds`` (half of it with ``--trace
   1``, whose traced pass takes the other half).
   The benchmark adds no tracing or timers to this pass; point walls
   are host time from call to result, read from each point's stored
   manifest on the pool and fabric executors.  Between points (serial)
   or steps (pool, fabric) it runs ``ledger.calibrate``, once per
   worker at the same time (``Calibrator``), and each
   point's wall is also expressed in reference seconds, scaled by the
   calibrations on either side of it; the end-to-end metrics are in
   reference seconds, the host seconds are reported beside them.
2. **Verification.**  With ``--trace 1`` every step runs again through
   the same executor with span tracing, a metrics registry and the walk
   timers (``walkprobe.py``) on; every re-run payload must be
   bit-identical to the timed pass, and the per-layer metrics come from
   this traced pass.  Otherwise one of the points ``reference.json``
   pins, picked by the seed, runs traced in this process and must
   match its pinned checksum, so a run at any seed checks the
   program's output against the committed one.  At seed 42 every timed
   point the reference covers must match it too.

The last line of standard output is one JSON object for ``run.py``.
``--probe`` instead builds what the first point needs, prints ``ready``
and exits: ``run.py`` times that as set-up.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.experiments.parallel import RunSpec, run_many, run_telemetry
from repro.experiments.records import ConfigResult, ResultCache, payload_checksum
from repro.experiments.runner import run_configuration
from repro.fabric import fabric_run_many, fabric_run_telemetry
from repro.hw.trace import TraceGenerator, TraceProfile
from repro.odb.system import OdbConfig, OdbSystem
from repro.sim.randomness import RandomStreams
from repro.workload import compile_workload

import ledger
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
#: Most workers a pool or fabric pass may use, whatever the host offers.
MAX_WORKERS = 4
#: Steps a timed pass runs even past its budget: a scaled point can
#: take longer than the whole budget, and a median needs two samples.
MIN_STEPS = 2


@dataclass
class Point:
    """One configuration point as a pass saw it."""

    spec: RunSpec
    #: None when the point raised.
    result: Optional[ConfigResult]
    #: Host seconds from call to result.
    wall_s: float
    #: Host seconds from the start of the pass to the result's arrival.
    done_s: float
    trace: Optional[dict] = None
    counters: Optional[dict] = None
    #: ``wall_s`` in reference seconds (timed pass only).
    ref_s: float = 0.0

    @property
    def checksum(self) -> Optional[str]:
        """The payload checksum, or None when the point raised."""
        if self.result is None:
            return None
        return payload_checksum(self.result.to_dict())


def worker_count(workload: Workload) -> int:
    """Workers of the workload's executor: 1 for the serial loop."""
    if workload.executor == "serial":
        return 1
    return min(ledger.usable_cores(), MAX_WORKERS)


#: Calibrations each process runs per reading of a several-worker pass.
#: One reading follows a step of several seconds, and a single 0.06 s
#: calibration lands on a fast or a slow instant of a shared core (its
#: readings swing by 2x).  Scaling the same ten grid runs by the mean
#: of five instead of the first of them halved their spreads.
CALIBRATION_READINGS = 5


def _calibrate_on_request(pipe) -> None:
    while pipe.recv():
        pipe.send(statistics.mean(ledger.calibrate()
                                  for _ in range(CALIBRATION_READINGS)))


class Calibrator:
    """``ledger.calibrate`` on as many cores at once as the pass's
    workers use: a host whose cores slow down when all of them are busy
    shows it only to a calibration that keeps them all busy.  Several
    workers get idle calibration processes, forked once, that wait
    while the pass runs; each reading is the mean of
    ``CALIBRATION_READINGS`` calibrations."""

    def __init__(self, processes: int) -> None:
        self._pipes: list = []
        self._processes: list = []
        if processes < 2:
            return
        context = multiprocessing.get_context("fork")
        for _ in range(processes):
            pipe, child = context.Pipe()
            process = context.Process(target=_calibrate_on_request,
                                      args=(child,), daemon=True)
            process.start()
            self._pipes.append(pipe)
            self._processes.append(process)

    def __call__(self) -> float:
        """Mean host seconds of one calibration per process."""
        if not self._pipes:
            return ledger.calibrate()
        for pipe in self._pipes:
            pipe.send(True)
        return statistics.mean(pipe.recv() for pipe in self._pipes)

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *_exc) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(False)
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()


def _serial(specs: list, cache_dir: str, start: float) -> list:
    cache = ResultCache(Path(cache_dir))
    points = []
    for spec in specs:
        began = perf_counter()
        try:
            result = run_configuration(
                spec.warehouses, spec.processors, clients=spec.clients,
                machine=spec.machine, settings=spec.settings,
                use_cache=False, cache=cache, workload=spec.workload)
        except Exception as error:  # counted as failed, run goes on
            print(f"{spec.label}: {error!r}", file=sys.stderr)
            result = None
        ended = perf_counter()
        points.append(Point(spec, result, ended - began, ended - start))
    return points


def _batch(executor: str, specs: list, cache_dir: str, start: float,
           workers: int) -> list:
    arrived = {}

    def on_result(spec: RunSpec, _result) -> None:
        arrived[spec.key()] = perf_counter() - start

    try:
        if executor == "pool":
            results = run_many(specs, jobs=workers, cache_dir=cache_dir,
                               on_result=on_result)
        else:
            results = fabric_run_many(specs, workers=workers,
                                      transport="stdio",
                                      cache_dir=cache_dir,
                                      on_result=on_result)
    except Exception as error:  # the whole step counts as failed
        print(f"{executor} step: {error!r}", file=sys.stderr)
        return [Point(spec, None, 0.0, 0.0) for spec in specs]
    cache = ResultCache(Path(cache_dir))
    return [Point(spec, result,
                  cache.load_manifest(spec.key()).wall_time_s,
                  arrived[spec.key()])
            for spec, result in zip(specs, results)]


def _expected_end(start: float, steps_run: int) -> float:
    """When one more step would end, at the mean step time so far."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / steps_run


@dataclass
class TimedPass:
    """What the timed pass measured."""

    points: list
    #: Host and reference seconds of each step, calibrations left out.
    step_walls: list
    step_refs: list
    #: Peak resident set once ``MIN_STEPS`` steps have run: the same
    #: work on every run, however many steps the host's speed allows.
    rss_mb: float = 0.0


def timed_pass(workload: Workload, seed: int, seconds: float,
               steps: Optional[int], workers: int,
               scratch: str) -> TimedPass:
    """Closed-loop untraced pass, calibrating the host after every
    serial point and every pool or fabric step."""
    cache_dir = tempfile.mkdtemp(prefix="timed-", dir=scratch)
    timed = TimedPass([], [], [])
    serial = workload.executor == "serial"
    with Calibrator(workers) as calibrate:
        calibration = calibrate()
        start = perf_counter()
        while (len(timed.step_walls) < steps if steps is not None
               else len(timed.step_walls) < MIN_STEPS
               or _expected_end(start, len(timed.step_walls)) <= seconds):
            specs = workload.step(seed, len(timed.step_walls))
            step_wall = step_ref = 0.0
            for unit in ([[spec] for spec in specs] if serial else [specs]):
                began = perf_counter()
                batch = (_serial(unit, cache_dir, start) if serial
                         else _batch(workload.executor, unit, cache_dir,
                                     start, workers))
                wall = perf_counter() - began
                before, calibration = calibration, calibrate()
                scale = ledger.reference_scale(before, calibration)
                for point in batch:
                    point.ref_s = point.wall_s * scale
                step_wall += wall
                step_ref += wall * scale
                timed.points += batch
            timed.step_walls.append(step_wall)
            timed.step_refs.append(step_ref)
            if len(timed.step_walls) <= MIN_STEPS:
                timed.rss_mb = peak_rss_mb()
    return timed


def _traced_serial(spec: RunSpec, cache_dir: str) -> Point:
    began = perf_counter()
    try:
        [telemetry] = run_telemetry([spec], jobs=1, use_cache=False,
                                    cache_dir=cache_dir)
    except Exception as error:  # counted as failed
        print(f"{spec.label} traced: {error!r}", file=sys.stderr)
        return Point(spec, None, 0.0, 0.0)
    wall = perf_counter() - began
    return Point(spec, telemetry.result, wall, wall, telemetry.trace,
                 telemetry.metrics["counters"])


def _traced_batch(executor: str, specs: list, cache_dir: str,
                  workers: int) -> list:
    try:
        if executor == "pool":
            telemetry = run_telemetry(specs, jobs=workers,
                                      cache_dir=cache_dir)
        else:
            telemetry = fabric_run_telemetry(specs, workers=workers,
                                             transport="stdio",
                                             cache_dir=cache_dir)
    except Exception as error:  # the whole step counts as failed
        print(f"{executor} traced step: {error!r}", file=sys.stderr)
        return [Point(spec, None, 0.0, 0.0) for spec in specs]
    return [Point(item.spec, item.result, item.manifest.wall_time_s,
                  item.manifest.wall_time_s, item.trace,
                  item.metrics["counters"])
            for item in telemetry]


def traced_pass(executor: str, batches: list, workers: int,
                scratch: str) -> list:
    """Run each batch of specs through ``executor`` with tracing and
    metrics on, batch after batch like the timed pass."""
    cache_dir = tempfile.mkdtemp(prefix="traced-", dir=scratch)
    points: list = []
    for specs in batches:
        if executor == "serial":
            points += [_traced_serial(spec, cache_dir) for spec in specs]
        else:
            points += _traced_batch(executor, specs, cache_dir, workers)
    return points


def install_walk_timers() -> None:
    """Walk timers in this process and, through the site hook, in the
    fabric workers a later pass spawns (fresh interpreters).  Pool
    workers fork from this process and inherit them."""
    import walkprobe

    walkprobe.install()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE / "sitehook"), os.environ.get("PYTHONPATH")]))


def records_metrics(done: list, scratch: str) -> dict:
    """Store every completed point's payload into a fresh cache, then
    load each back."""
    cache = ResultCache(Path(tempfile.mkdtemp(prefix="records-",
                                              dir=scratch)))
    stores, loads = [], []
    for point in done:
        began = perf_counter()
        cache.store(point.spec.key(), point.result)
        stores.append(perf_counter() - began)
    for point in done:
        began = perf_counter()
        cache.load(point.spec.key())
        loads.append(perf_counter() - began)
    stored = sum(path.stat().st_size
                 for path in cache.directory.glob("*.json"))
    return {
        "records.store_ms_p50": 1000.0 * statistics.median(stores),
        "records.load_ms_p50": 1000.0 * statistics.median(loads),
        "records.bytes_per_point": stored / len(done),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process and its reaped children."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def load_reference(name: str) -> list:
    """The workload's pinned ``{label, checksum}`` rows at the
    reference seed (empty when nothing is pinned)."""
    if not ledger.REFERENCE_PATH.exists():
        return []
    pinned = json.loads(ledger.REFERENCE_PATH.read_text(encoding="utf-8"))
    return pinned["workloads"].get(name, [])


def reference_specs(workload: Workload) -> list:
    """The run specs ``reference.json`` pins, in its order."""
    return [spec for index in range(workload.reference_steps)
            for spec in workload.step(ledger.REFERENCE_SEED, index)]


def point_row(point: Point) -> dict:
    """The per-point line of the ledger."""
    return {"label": f"{point.spec.label} seed={point.spec.settings.seed}",
            "checksum": point.checksum, "wall_s": point.wall_s}


def verify_pinned(workload: Workload, seed: int, pinned: list,
                  scratch: str) -> dict:
    """Run one pinned point, picked by the seed, traced in this process;
    its failure reason by label, or nothing when it matches."""
    index = seed % len(pinned)
    [point] = traced_pass("serial", [[reference_specs(workload)[index]]],
                          1, scratch)
    label = point_row(point)["label"]
    if label != pinned[index]["label"]:
        return {label: f"reference.json pins {pinned[index]['label']} here"}
    failures = ledger.payload_failures([point.checksum], {},
                                       [pinned[index]["checksum"]])
    return {label: reason for reason in failures.values()}


def run(workload: Workload, seed: int, seconds: Optional[float],
        steps: Optional[int], trace: bool, pinned: Optional[list],
        scratch: str) -> dict:
    """The timed pass, its verification, and (traced) the layer ledger.

    ``pinned`` is the workload's rows of ``reference.json``, or None
    when this run is the one that writes them.
    """
    workers = worker_count(workload)
    if trace and seconds is not None:
        # The traced pass re-runs every timed step: half the budget each.
        seconds /= 2
    measured = timed_pass(workload, seed, seconds, steps, workers, scratch)
    points, steps_run = measured.points, len(measured.step_walls)
    wall = sum(measured.step_walls)
    done = [point for point in points if point.result is not None]
    walls = [point.wall_s for point in done]
    refs = [point.ref_s for point in done]
    summary = ledger.percentiles(refs) if refs else {"n": 0, "p50": 0.0}
    report = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "executor": workload.executor, "workers": workers,
        "steps": steps_run, "wall_s": wall, "point_walls": summary,
        "host": {
            "points_per_s": len(done) / wall,
            "point_s_p50": statistics.median(walls) if walls else 0.0,
        },
        "metrics": {
            "points_per_s": len(done) / sum(measured.step_refs),
            "point_s_p50": summary["p50"],
            "peak_rss_mb": measured.rss_mb,
        },
    }

    checksums = [point.checksum for point in points]
    reference = ([row["checksum"] for row in pinned]
                 if pinned is not None and seed == ledger.REFERENCE_SEED
                 else None)
    rows = [point_row(point) for point in points]
    if not trace:
        failures = {
            str(index): reason for index, reason
            in ledger.payload_failures(checksums, {}, reference).items()}
        failures.update(verify_pinned(workload, seed, pinned, scratch))
        report.update({
            "attempted": len(points) + 1, "failed": len(failures),
            "failures": failures,
            "verified": {"traced": 0, "pinned": 1 + min(
                len(reference or ()), len(points))},
            "points": rows,
        })
        return report

    install_walk_timers()
    traced_points = traced_pass(
        workload.executor,
        [workload.step(seed, index) for index in range(steps_run)],
        workers, scratch)
    failures = ledger.payload_failures(
        checksums, {index: point.checksum
                    for index, point in enumerate(traced_points)}, reference)
    report.update({
        "attempted": len(points), "failed": len(failures),
        "failures": {str(index): reason
                     for index, reason in failures.items()},
        "verified": {"traced": len(traced_points),
                     "pinned": min(len(reference or ()), len(points))},
    })
    layers, traced_walls, timed_walls = [], [], []
    for index, (timed, point) in enumerate(zip(points, traced_points)):
        if timed.result is None or point.result is None:
            continue
        layer = ledger.point_layers(point.trace, point.counters)
        layers.append(layer)
        traced_walls.append(point.wall_s)
        timed_walls.append(timed.wall_s)
        rows[index]["traced"] = dict(
            layer, wall_s=point.wall_s,
            coverage=ledger.coverage(layer, point.wall_s))
    first = min(done, key=lambda point: point.done_s)
    report["layers"] = {
        **ledger.layer_metrics(layers, traced_walls),
        **records_metrics(done, scratch),
        **ledger.executor_metrics(wall, walls, workers, first.done_s,
                                  first.wall_s),
        "obs.tracing_overhead": ledger.instrumentation_overhead(
            timed_walls, traced_walls),
    }
    report["points"] = rows
    return report


def probe(workload: Workload, seed: int, scratch: str) -> None:
    """Build what the first point needs, then report ready."""
    spec = workload.step(seed, 0)[0]
    compiled = (compile_workload(spec.workload)
                if spec.workload is not None else None)
    clients = spec.resolved_clients
    OdbSystem(OdbConfig(spec.warehouses, clients, spec.processors,
                        machine=spec.machine, seed=spec.settings.seed,
                        workload=compiled))
    TraceGenerator(spec.machine,
                   TraceProfile(spec.warehouses, spec.processors, clients,
                                1.0, 1.0, 1.0, 1.0),
                   RandomStreams(spec.settings.seed).fork("trace-round0"))
    ResultCache(Path(tempfile.mkdtemp(prefix="cache-", dir=scratch)))
    print("ready", flush=True)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ledger.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-run", action="store_true",
                        help="run the workload's reference steps, traced, "
                             "without comparing to reference.json")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None and not (args.probe or args.reference_run):
        parser.error("--seconds is required for a timed run")
    workload = WORKLOADS[args.workload]
    pinned = load_reference(workload.name)
    if not (pinned or args.probe or args.reference_run):
        parser.error(f"reference.json pins no point of {workload.name}: "
                     "run run.py --write-reference")
    with tempfile.TemporaryDirectory(prefix="perf-session-") as scratch:
        if args.probe:
            probe(workload, args.seed, scratch)
            return 0
        if args.reference_run:
            report = run(workload, args.seed, None,
                         workload.reference_steps, True, None, scratch)
        else:
            report = run(workload, args.seed, args.seconds, None,
                         bool(args.trace), pinned, scratch)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
