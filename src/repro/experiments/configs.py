"""Configuration grids and fidelity settings.

The warehouse grid spans the paper's measured range (10 to 800, plus
1200 for the I/O-bound demonstration in Figure 2); processors span 1 to
the Quad limit.  The client table reproduces the paper's methodology:
clients are whatever keeps CPU utilization above 90% (Table 1); the
values here were computed by the Table 1 experiment
(``repro.experiments.exp_table1``) and are interpolated for
intermediate warehouse counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The measured warehouse grid for trend figures.
FULL_WAREHOUSE_GRID: tuple[int, ...] = (10, 25, 50, 100, 150, 200, 300, 400,
                                        500, 600, 800)
#: Table 1 uses a coarser grid.
TABLE1_WAREHOUSES: tuple[int, ...] = (10, 50, 100, 500, 800)
#: The I/O-bound demonstration point (excluded from trend analysis).
IO_BOUND_WAREHOUSES: int = 1200
PROCESSOR_GRID: tuple[int, ...] = (1, 2, 4)

#: Clients that keep CPU utilization >= 90%, by (processors, warehouses).
#: Computed with core.saturation against this repo's simulated testbed
#: (regenerate with exp_table1.run()); the shape matches the paper's
#: Table 1 — slow growth at small W and few processors, fast growth once
#: the working set spills out of the SGA.
CLIENT_TABLE: dict[tuple[int, int], int] = {
    (1, 10): 4, (1, 50): 3, (1, 100): 6, (1, 500): 11, (1, 800): 12,
    (2, 10): 6, (2, 50): 5, (2, 100): 11, (2, 500): 21, (2, 800): 25,
    (4, 10): 14, (4, 50): 10, (4, 100): 21, (4, 500): 69, (4, 800): 96,
}


def client_count(warehouses: int, processors: int) -> int:
    """Clients for a configuration, interpolating the client table.

    Interpolation is linear in log(W) between the bracketing measured
    points; clamped at the ends.
    """
    if processors not in PROCESSOR_GRID:
        raise ValueError(f"processors must be one of {PROCESSOR_GRID}")
    if warehouses <= 0:
        raise ValueError("warehouses must be positive")
    known = sorted(w for p, w in CLIENT_TABLE if p == processors)
    if warehouses <= known[0]:
        return CLIENT_TABLE[(processors, known[0])]
    if warehouses >= known[-1]:
        return CLIENT_TABLE[(processors, known[-1])]
    for low, high in zip(known, known[1:]):
        if low <= warehouses <= high:
            c_low = CLIENT_TABLE[(processors, low)]
            c_high = CLIENT_TABLE[(processors, high)]
            t = (math.log(warehouses) - math.log(low)) / (
                math.log(high) - math.log(low))
            return max(1, round(c_low + t * (c_high - c_low)))
    raise AssertionError("unreachable: grid covers the range")


@dataclass(frozen=True)
class RunnerSettings:
    """Fidelity knobs for one configuration run."""

    warmup_txns: int = 400
    measure_txns: int = 2500
    trace_txns: int = 1000
    trace_warmup: int = 250
    fixed_point_rounds: int = 3
    seed: int = 42
    #: Simulated-seconds cap so I/O-bound configs terminate.
    time_limit_s: float = 900.0

    def __post_init__(self) -> None:
        if min(self.warmup_txns, self.measure_txns, self.trace_txns,
               self.trace_warmup) < 0:
            raise ValueError("transaction counts must be >= 0")
        if self.fixed_point_rounds < 1:
            raise ValueError("need at least one fixed-point round")


#: Full-fidelity settings for benchmarks and EXPERIMENTS.md numbers.
DEFAULT_SETTINGS = RunnerSettings()
#: Reduced fidelity for unit/integration tests.
FAST_SETTINGS = RunnerSettings(warmup_txns=100, measure_txns=600,
                               trace_txns=300, trace_warmup=80,
                               fixed_point_rounds=2, time_limit_s=300.0)
