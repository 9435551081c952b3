"""Experiment harness: regenerate every table and figure.

- :mod:`~repro.experiments.runner` — runs one (W, C, P, machine)
  configuration end-to-end: DES system simulation coupled to the
  microarchitecture model through CPI fixed-point iteration.
- :mod:`~repro.experiments.configs` — warehouse grids, client table,
  fidelity settings.
- :mod:`~repro.experiments.records` — result dataclasses and the sweep
  cache (benchmarks share one sweep instead of re-simulating).
- :mod:`~repro.experiments.report` — plain-text rendering of the paper's
  tables and figure series.
- ``exp_*`` modules — one per paper artifact (see DESIGN.md §4).
"""

from repro.experiments.configs import (
    FULL_WAREHOUSE_GRID,
    PROCESSOR_GRID,
    RunnerSettings,
    TABLE1_WAREHOUSES,
    client_count,
)
from repro.experiments.records import ConfigResult, ResultCache
from repro.experiments.runner import run_configuration

__all__ = [
    "FULL_WAREHOUSE_GRID",
    "PROCESSOR_GRID",
    "RunnerSettings",
    "TABLE1_WAREHOUSES",
    "client_count",
    "ConfigResult",
    "ResultCache",
    "run_configuration",
]
