"""Multi-seed variability of simulated measurements.

Multi-threaded workload simulations are noisy run to run (Alameldeen &
Wood, HPCA 2003 — the paper's reference [2]); the paper handles this on
hardware by repeating each EMON measurement six times.  This module does
the simulation-side equivalent: re-run one configuration under several
seeds and report mean, standard deviation, and a normal-approximation
confidence interval per metric — so any figure in this reproduction can
carry error bars.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.experiments.configs import DEFAULT_SETTINGS, RunnerSettings
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.records import ConfigResult
from repro.hw.machine import MachineConfig, XEON_MP_QUAD

#: Metrics extracted by default: name -> getter over ConfigResult.
DEFAULT_METRICS: dict[str, Callable[[ConfigResult], float]] = {
    "tps": lambda r: r.tps,
    "cpu_utilization": lambda r: r.system.cpu_utilization,
    "ipx": lambda r: r.ipx,
    "cpi": lambda r: r.cpi.cpi,
    "l3_mpi": lambda r: r.rates.l3_misses_per_instr,
    "reads_per_txn": lambda r: r.system.reads_per_txn,
    "context_switches_per_txn":
        lambda r: r.system.context_switches_per_txn,
}

#: Two-sided z values for common confidence levels.
_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class MetricVariability:
    """Across-seed statistics of one metric."""

    name: str
    samples: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Mean of the metric across seeds."""
        return sum(self.samples) / len(self.samples)

    @property
    def stdev(self) -> float:
        """Sample standard deviation across seeds."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((s - mu) ** 2 for s in self.samples) / (n - 1))

    @property
    def coefficient_of_variation(self) -> float:
        """stdev / mean across seeds (run-to-run variability)."""
        mu = self.mean
        return self.stdev / abs(mu) if mu else 0.0

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Normal-approximation CI of the mean."""
        try:
            z = _Z_VALUES[level]
        except KeyError:
            known = ", ".join(str(k) for k in sorted(_Z_VALUES))
            raise ValueError(f"level must be one of {known}")
        half = z * self.stdev / math.sqrt(len(self.samples))
        return self.mean - half, self.mean + half


@dataclass(frozen=True)
class VariabilityReport:
    """All metrics for one configuration across seeds."""

    warehouses: int
    processors: int
    seeds: tuple[int, ...]
    metrics: dict[str, MetricVariability]

    def metric(self, name: str) -> MetricVariability:
        """Variability summary for one metric; raises ``KeyError`` with the known names."""
        try:
            return self.metrics[name]
        except KeyError:
            known = ", ".join(sorted(self.metrics))
            raise KeyError(f"unknown metric {name!r}; known: {known}")

    def worst_cv(self) -> tuple[str, float]:
        """The noisiest metric and its coefficient of variation."""
        name = max(self.metrics, key=lambda n: self.metrics[n]
                   .coefficient_of_variation)
        return name, self.metrics[name].coefficient_of_variation


def measure_variability(warehouses: int, processors: int,
                        seeds: Sequence[int] = (1, 2, 3, 4, 5),
                        machine: MachineConfig = XEON_MP_QUAD,
                        settings: RunnerSettings = DEFAULT_SETTINGS,
                        metrics: dict[str, Callable[[ConfigResult], float]]
                        | None = None) -> VariabilityReport:
    """Run one configuration under several seeds and summarize.

    The seeds run as one :func:`~repro.experiments.parallel.run_many`
    call on the default pool (in-process under ``REPRO_SERIAL``).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if metrics is None:
        metrics = DEFAULT_METRICS
    results = run_many([RunSpec(warehouses, processors, machine=machine,
                                settings=dataclasses.replace(settings,
                                                             seed=seed))
                        for seed in seeds])
    return VariabilityReport(
        warehouses=warehouses,
        processors=processors,
        seeds=tuple(seeds),
        metrics={name: MetricVariability(
                     name, tuple(getter(result) for result in results))
                 for name, getter in metrics.items()},
    )
