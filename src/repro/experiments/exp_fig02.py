"""Figure 2 — TPS vs warehouses and processors, with operating regions.

TPS peaks at the smallest configuration and falls as the working set
outgrows the SGA; the paper marks three regions: CPU bound (cached),
balanced, and I/O bound (the 1200W point where even the maximum client
count cannot hold 90% CPU utilization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.configs import (
    DEFAULT_SETTINGS,
    FULL_WAREHOUSE_GRID,
    IO_BOUND_WAREHOUSES,
    PROCESSOR_GRID,
    RunnerSettings,
    client_count,
)
from repro.experiments import exp_system_figs
from repro.experiments.exp_system_figs import SystemSweep
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.records import ConfigResult
from repro.experiments.report import render_series, render_table
from repro.hw.machine import MachineConfig, XEON_MP_QUAD

#: Reads per transaction below which a setup counts as cached/CPU bound
#: (the paper classifies <50 warehouses on its machine).
CPU_BOUND_READS_THRESHOLD = 0.5
#: Utilization below which a setup counts as I/O bound.
IO_BOUND_UTILIZATION = 0.80


@dataclass(frozen=True)
class Fig02Result:
    """Figure 2 reproduction: per-point utilization classification."""
    by_processors: dict[int, list[ConfigResult]]
    io_bound_point: dict[int, ConfigResult]

    def regions(self, processors: int) -> dict[int, str]:
        """Warehouse -> region classification."""
        result = {}
        for record in self.by_processors[processors]:
            result[record.warehouses] = classify(record)
        point = self.io_bound_point[processors]
        result[point.warehouses] = classify(point)
        return result


def classify(record: ConfigResult) -> str:
    """Label a run io-bound / cpu-bound / balanced (Figure 2 regions)."""
    if record.system.cpu_utilization < IO_BOUND_UTILIZATION:
        return "io-bound"
    if record.system.reads_per_txn < CPU_BOUND_READS_THRESHOLD:
        return "cpu-bound"
    return "balanced"


def run(machine: MachineConfig = XEON_MP_QUAD,
        settings: RunnerSettings = DEFAULT_SETTINGS,
        processors=PROCESSOR_GRID,
        jobs: Optional[int] = None,
        sweep: Optional[SystemSweep] = None) -> Fig02Result:
    """Run the Figure 2 sweep grid and classify every point.

    The grid points come from ``sweep``, a
    :func:`repro.experiments.exp_system_figs.run` sweep over
    ``FULL_WAREHOUSE_GRID`` run with the same machine and settings; by
    default that sweep runs here.  Only the 1200W points run on top of
    it, with the 800W client ceiling (the paper's 26-disk array cannot
    hide more I/O anyway).
    """
    if sweep is None:
        sweep = exp_system_figs.run(machine=machine, settings=settings,
                                    processors=processors, jobs=jobs)
    elif (sweep.warehouses != list(FULL_WAREHOUSE_GRID)
            or not set(processors) <= set(sweep.by_processors)
            or any(r.machine != machine.name
                   for p in processors for r in sweep.by_processors[p])):
        raise ValueError("the sweep must cover FULL_WAREHOUSE_GRID at "
                         f"{list(processors)}P on {machine.name}")
    specs = [RunSpec(warehouses=IO_BOUND_WAREHOUSES, processors=p,
                     clients=client_count(FULL_WAREHOUSE_GRID[-1], p),
                     machine=machine, settings=settings)
             for p in processors]
    results = run_many(specs, jobs=jobs)
    return Fig02Result(
        by_processors={p: list(sweep.by_processors[p]) for p in processors},
        io_bound_point=dict(zip(processors, results)))


def render(result: Fig02Result) -> str:
    """Rendered table for the Figure 2 classification sweep."""
    processors = sorted(result.by_processors)
    xs = [r.warehouses for r in result.by_processors[processors[0]]]
    xs = xs + [result.io_bound_point[processors[0]].warehouses]
    series = {}
    for p in processors:
        values = [r.tps for r in result.by_processors[p]]
        values.append(result.io_bound_point[p].tps)
        series[f"TPS {p}P"] = values
    body = render_series("Figure 2: ODB TPS with P and W scaling",
                         "Warehouses", xs, series)
    region_rows = []
    for w in xs:
        region_rows.append([w] + [result.regions(p).get(w, "?")
                                  for p in processors])
    regions = render_table("Operating regions", ["Warehouses"]
                           + [f"{p}P" for p in processors], region_rows)
    return body + "\n\n" + regions
