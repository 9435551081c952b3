"""The benchmark's four workloads: which configuration points each runs.

A workload is an endless sequence of *steps*; the timed loop runs whole
steps, starting a new one only while it expects it to end within the
run's time budget.  A step is the unit whose composition must not
change with the machine's speed (so the point-wall median does not
jump when an odd point squeezes in): one point for the homogeneous
anchor, a whole warehouse cycle for the scaled one, and a nine-point
grid pass for the executor workloads.  Every point runs
``BENCH_SETTINGS``, short enough that a run of ten-odd seconds holds
many points, so its medians are taken over many samples.  Every point
derives its seed from the run seed and the step index, so the same
``--seed`` always gives the same inputs.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.experiments.configs import RunnerSettings
from repro.experiments.parallel import RunSpec

#: Run lengths of every benchmark point: 40-50% of ``FAST_SETTINGS``'s
#: transactions.  The database sizes are the paper's; only the number
#: of simulated transactions shrinks, so a point takes 0.4-1.6 s.
BENCH_SETTINGS = RunnerSettings(warmup_txns=50, measure_txns=250,
                                trace_txns=120, trace_warmup=40,
                                fixed_point_rounds=2, time_limit_s=300.0)
#: Warehouse counts of the scaled workload: the database outgrows the SGA.
SCALED_WAREHOUSES = (500, 800, 1200)
#: The executor workloads' grid: the short cached-region points of
#: Table 1 at every processor count.  Their costs lie close together
#: (0.4-0.9 s), so the grid's median has many points near it, run at
#: different moments of each step; a grid with W=800 had two points per
#: step near its median, run side by side, and one slow spell of the
#: host moved it.
GRID_WAREHOUSES = (10, 50, 100)
GRID_PROCESSORS = (1, 2, 4)


def _seeded(seed: int) -> RunnerSettings:
    return dataclasses.replace(BENCH_SETTINGS, seed=seed)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its executor and its step sequence."""

    name: str
    #: ``serial`` (in-process loop), ``pool`` (``run_many``) or
    #: ``fabric`` (``fabric_run_many`` over stdio workers).
    executor: str
    #: ``step(seed, index)`` -> the run specs of step ``index``.
    step: Callable[[int, int], list]
    #: Steps ``reference.json`` pins at seed 42 (about twice what one
    #: run reaches today, so a faster program stays covered).
    reference_steps: int


def _anchor(seed: int, index: int) -> list:
    return [RunSpec(100, 4, settings=_seeded(seed + index))]


def _scaled(seed: int, index: int) -> list:
    settings = _seeded(seed + index)
    return [RunSpec(warehouses, 4, settings=settings)
            for warehouses in SCALED_WAREHOUSES]


def _grid(seed: int, index: int) -> list:
    # Largest database first: workers take points in this order, so the
    # short points fill the end of the step and the workers finish it
    # together, not one waiting on a late W=100 point.
    settings = _seeded(seed + index)
    return [RunSpec(warehouses, processors, settings=settings)
            for warehouses in reversed(GRID_WAREHOUSES)
            for processors in GRID_PROCESSORS]


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("anchor-w100", "serial", _anchor, reference_steps=48),
        Workload("scaled-w800", "serial", _scaled, reference_steps=8),
        Workload("grid-fast-pool", "pool", _grid, reference_steps=10),
        Workload("grid-fast-fabric", "fabric", _grid, reference_steps=10),
    )
}
