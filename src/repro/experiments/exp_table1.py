"""Table 1 — number of clients at 90% CPU utilization.

"we achieve our goal of 90+% CPU utilization at each configuration by
adjusting the number of clients as appropriate" (Section 3.2.1).  For
every (W, P) on Table 1's grid, search the smallest client count whose
measured utilization reaches 90%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.saturation import SaturationResult, saturation_search
from repro.experiments.configs import (
    DEFAULT_SETTINGS,
    PROCESSOR_GRID,
    RunnerSettings,
    TABLE1_WAREHOUSES,
)
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.report import render_table
from repro.hw.machine import MachineConfig, XEON_MP_QUAD

#: The paper's Table 1, for side-by-side comparison.
PAPER_TABLE1 = {
    (1, 10): 8, (1, 50): 8, (1, 100): 6, (1, 500): 12, (1, 800): 13,
    (2, 10): 10, (2, 50): 16, (2, 100): 16, (2, 500): 25, (2, 800): 36,
    (4, 10): 10, (4, 50): 32, (4, 100): 48, (4, 500): 56, (4, 800): 64,
}


@dataclass(frozen=True)
class Table1Result:
    """Client counts per (processors, warehouses)."""

    entries: dict[tuple[int, int], SaturationResult]
    target: float

    def clients(self, processors: int, warehouses: int) -> int:
        """Saturating client count found for one (P, W) cell."""
        return self.entries[(processors, warehouses)].clients


def run(machine: MachineConfig = XEON_MP_QUAD,
        settings: RunnerSettings = DEFAULT_SETTINGS,
        warehouses=TABLE1_WAREHOUSES, processors=PROCESSOR_GRID,
        target: float = 0.90, max_clients: int = 96,
        jobs: Optional[int] = None) -> Table1Result:
    """Run the Table 1 saturation search over the (P, W) grid.

    Each cell's search is sequential — a probe's client count depends
    on the previous utilization — so the cells advance in lockstep:
    every round runs all pending probes as one :func:`run_many` call.
    """
    searches = {(p, w): saturation_search(target, maximum=max_clients)
                for p in processors for w in warehouses}
    probes = {cell: next(search) for cell, search in searches.items()}
    entries: dict[tuple[int, int], SaturationResult] = {}
    while probes:
        # Biggest probes first, so a round does not end on one worker
        # running a large point alone, and one W's probes side by side,
        # so a worker can reuse the prewarm it just built.
        cells = sorted(probes, key=lambda cell: (-cell[1], -probes[cell]))
        results = run_many(
            [RunSpec(w, p, clients=probes[(p, w)], machine=machine,
                     settings=settings)
             for p, w in cells], jobs=jobs)
        pending = {}
        for cell, result in zip(cells, results):
            try:
                pending[cell] = searches[cell].send(
                    result.system.cpu_utilization)
            except StopIteration as stop:
                entries[cell] = stop.value
        probes = pending
    return Table1Result(entries={cell: entries[cell] for cell in searches},
                        target=target)


def render(result: Table1Result) -> str:
    """Rendered Table 1 (clients at saturation per cell)."""
    processors = sorted({p for p, _ in result.entries})
    warehouses = sorted({w for _, w in result.entries})
    headers = ["Warehouses"] + [f"{p}P" for p in processors] \
        + [f"{p}P (paper)" for p in processors]
    rows = []
    for w in warehouses:
        row = [w]
        for p in processors:
            entry = result.entries[(p, w)]
            suffix = "" if entry.reached_target else "*"
            row.append(f"{entry.clients}{suffix}")
        for p in processors:
            row.append(PAPER_TABLE1.get((p, w), "-"))
        rows.append(row)
    return render_table(
        f"Table 1: clients at {result.target:.0%} CPU utilization",
        headers, rows,
        note="* = target unreachable (I/O bound); absolute counts differ "
             "from the paper (different CPU speed/disk balance), the "
             "growth shape is the reproduction target.")
