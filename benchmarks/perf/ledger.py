"""Derivations of the performance ledger: pure arithmetic over measurements.

Nothing here runs a simulation.  The inputs are what a benchmark run
already holds — serialized span trees (``repro.obs.tracing.Tracer.to_dict``),
metrics counters, point wall times and completion times, payload
checksums — so ``test_ledger.py`` checks every formula on made-up data.

All times are host seconds.  Simulated quantities appear only as work
counts (transactions, events, references), never as times.

It also holds what ``run.py`` and ``session.py`` share: where the
pinned checksums live and at which seed, how many cores the benchmark
may use, and the calibration that turns host seconds into reference
seconds.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import statistics
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Optional

#: Payload checksums pinned for the first steps of every workload.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
#: The seed ``reference.json`` pins.
REFERENCE_SEED = 42

#: Host seconds ``calibrate`` takes on the reference host.  A stretch of
#: host time in reference seconds is its host seconds times this over
#: the calibration measured around it, so a spell in which the host runs
#: everything 40% slower leaves reference seconds where they were.
REFERENCE_CALIBRATION_S = 0.06
#: The calibration's dict is larger than a core's private caches, like
#: the simulator's block and line tables, so it slows when they do.
CALIBRATION_KEYS = 1 << 15
CALIBRATION_ROUNDS = 30_000
_calibration_table: dict = {}


def usable_cores() -> int:
    """Cores this process may run on (not the host's total)."""
    return len(os.sched_getaffinity(0))


class _Event:
    __slots__ = ("key", "serial")

    def __init__(self, key: int, serial: int) -> None:
        self.key = key
        self.serial = serial


def calibrate() -> float:
    """Host seconds of a fixed interpreter workload shaped like the
    simulator's inner loops: random reads and writes of a large dict and
    a bounded heap of small event objects.  It imports nothing from the
    program, and the garbage collector is off while it runs, so neither
    the program's code nor its live objects change what it costs."""
    table = _calibration_table
    if not table:
        table.update((key, key) for key in range(CALIBRATION_KEYS))
    mask = CALIBRATION_KEYS - 1
    heap: list = []
    acc, state = 0, 12345
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        for serial in range(CALIBRATION_ROUNDS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = state & mask
            acc += table[key]
            table[key] = acc & 0xFFFF
            heapq.heappush(heap, (state & 0xFFF, serial,
                                  _Event(state, serial)))
            if len(heap) > 256:
                acc ^= heapq.heappop(heap)[2].serial
        return perf_counter() - began
    finally:
        if collecting:
            gc.enable()


def reference_scale(before: float, after: float) -> float:
    """Reference seconds per host second between two calibrations."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


#: The layer self-times a traced point splits into.  They partition the
#: ``run-configuration`` span, so they sum to it exactly.
LAYER_TIMES = ("prewarm_s", "des_s", "gen_s", "walk_s", "solve_s", "glue_s")

#: Metrics counters the walk timers (``walkprobe.py``) publish per point.
WALK_SECONDS = "perf.walk_s"
WALK_REFS = "perf.walk_refs"
#: DES events retired, published by ``repro.sim.engine`` per DES run.
DES_EVENTS = "scheduler.dispatched"


def iter_spans(trace: Optional[dict]) -> Iterator[dict]:
    """Every span of a serialized tree, depth first."""
    stack = list(reversed((trace or {}).get("spans", [])))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.get("children", [])))


def span_seconds(trace: Optional[dict], name: str) -> float:
    """Total wall seconds of every span called ``name``."""
    return sum(node["duration_s"] for node in iter_spans(trace)
               if node["name"] == name)


def span_counter(trace: Optional[dict], name: str, counter: str) -> float:
    """Total of one counter over every span called ``name``."""
    return sum(node.get("counters", {}).get(counter, 0.0)
               for node in iter_spans(trace) if node["name"] == name)


def point_layers(trace: dict, counters: dict) -> dict:
    """One traced point's layer self-times and work counts.

    ``prewarm_s`` is the ``des-prewarm`` spans; ``des_s`` the rest of
    ``system-des`` (system build, warm-up and measured event loops);
    ``walk_s`` the walk timers' total inside ``trace-generation`` and
    ``gen_s`` the remainder of that span; ``solve_s`` the
    ``solve-cpi`` spans; ``glue_s`` what ``run-configuration`` spends
    outside all of them (fixed-point bookkeeping, result assembly).
    """
    run = span_seconds(trace, "run-configuration")
    des = span_seconds(trace, "system-des")
    prewarm = span_seconds(trace, "des-prewarm")
    trace_s = span_seconds(trace, "trace-generation")
    solve = span_seconds(trace, "solve-cpi")
    walk = counters.get(WALK_SECONDS, 0.0)
    return {
        "prewarm_s": prewarm,
        "des_s": des - prewarm,
        "gen_s": trace_s - walk,
        "walk_s": walk,
        "solve_s": solve,
        "glue_s": run - des - trace_s - solve,
        "run_s": run,
        "transactions": (span_counter(trace, "des-warmup", "transactions")
                         + span_counter(trace, "des-measure",
                                        "transactions")),
        "events": counters.get(DES_EVENTS, 0.0),
        "refs": counters.get(WALK_REFS, 0.0),
    }


def coverage(layers: dict, wall_s: float) -> float:
    """Share of a point's wall its layer self-times account for."""
    return sum(layers[name] for name in LAYER_TIMES) / wall_s


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was measured."""
    return part / whole if whole else 0.0


def percentiles(values: Iterable[float]) -> dict:
    """The median, the sample count, and each higher percentile that
    has at least ten samples beyond it (p90 from 100 samples, p99 from
    1000): a tail percentile read off fewer samples is noise."""
    data = sorted(values)
    summary = {"n": len(data), "p50": statistics.median(data)}
    for pct in (90, 99):
        if len(data) * (100 - pct) / 100 >= 10:
            summary[f"p{pct}"] = data[math.ceil(len(data) * pct / 100) - 1]
    return summary


def executor_metrics(wall_s: float, point_walls: list, workers: int,
                     first_done_s: float, first_wall_s: float) -> dict:
    """Executor cost of a closed-loop pass.

    ``efficiency`` is the share of the workers' capacity spent inside
    points; ``overhead_s`` the wall beyond perfect division of the point
    walls over the workers; ``first_result_s`` how long the first result
    took to reach the parent beyond its own compute time (spawn, pickle,
    frames, leases).
    """
    busy = sum(point_walls)
    return {
        "executor.workers": float(workers),
        "executor.efficiency": busy / (wall_s * workers),
        "executor.overhead_s": wall_s - busy / workers,
        "executor.first_result_s": first_done_s - first_wall_s,
    }


def layer_metrics(layers: list, walls: list) -> dict:
    """Workload-level layer metrics from its traced points.

    Times are per-point medians; rates and shares divide totals, so a
    long point weighs by its length.
    """
    def total(key: str) -> float:
        return sum(layer[key] for layer in layers)

    def median(key: str) -> float:
        return statistics.median(layer[key] for layer in layers)

    des, events, txns = total("des_s"), total("events"), total("transactions")
    refs = total("refs")
    return {
        "odb.prewarm_s": median("prewarm_s"),
        "odb.prewarm_share": ratio(total("prewarm_s"), sum(walls)),
        "odb.des_s": median("des_s"),
        "odb.des_txn_per_s": ratio(txns, des),
        "sim.events_per_s": ratio(events, des),
        "sim.events_per_txn": ratio(events, txns),
        "hw.gen_s": median("gen_s"),
        "hw.walk_s": median("walk_s"),
        "hw.refs": median("refs"),
        "hw.gen_refs_per_s": ratio(refs, total("gen_s")),
        "hw.walk_refs_per_s": ratio(refs, total("walk_s")),
        "core.solve_cpi_ms": 1000.0 * median("solve_s"),
        "runner.glue_s": median("glue_s"),
    }


def instrumentation_overhead(timed_walls: list, traced_walls: list) -> float:
    """Median over points of traced wall ÷ timed wall of the same point,
    minus 1.  Pairing each point with itself keeps the mix of points out
    of the ratio, and the median keeps one slow burst of the host out."""
    return statistics.median(traced / timed for timed, traced
                             in zip(timed_walls, traced_walls)) - 1.0


def payload_failures(checksums: list, traced: dict,
                     reference: Optional[list]) -> dict:
    """Why each failed point failed, by point index.

    ``checksums[i]`` is point ``i``'s untraced payload checksum (None
    when the point raised); ``traced`` maps indices that were re-run
    traced to their checksums; ``reference`` pins the first points'
    checksums at the reference seed.  A point fails when it raised,
    disagrees with its traced run, or disagrees with the reference.
    """
    failures = {}
    for index, checksum in enumerate(checksums):
        if checksum is None:
            failures[index] = "raised"
        elif index in traced and traced[index] != checksum:
            failures[index] = "traced payload differs"
        elif reference is not None and index < len(reference) \
                and reference[index] != checksum:
            failures[index] = "differs from reference.json"
    return failures
