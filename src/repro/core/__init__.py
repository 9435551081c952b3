"""The paper's analytical contribution.

- :mod:`~repro.core.ironlaw` — the iron law of database performance
  (Section 3.4): ``TPS = P * F / (IPX * CPI)``.
- :mod:`~repro.core.cpi_model` — the CPI decomposition of Tables 2-4
  with the bus-coupled L3 penalty, solved by fixed point.
- :mod:`~repro.core.regression` — least-squares and two-segment
  piecewise-linear fitting (Section 6.1).
- :mod:`~repro.core.pivot` — pivot points and representative-
  configuration selection (Sections 6.1-6.2, Table 5).
- :mod:`~repro.core.saturation` — the client search that keeps CPU
  utilization above 90% (Section 3.2.1, Table 1).
- :mod:`~repro.core.extrapolation` — predicting scaled-setup behavior
  from configurations at/above the pivot (Section 6.2).
- :mod:`~repro.core.baselines` — comparison models: a single global line
  and the naive cached-setup-as-truth assumption the paper argues
  against.
"""

from repro.core.ironlaw import DatabaseIronLaw, tps
from repro.core.cpi_model import (
    CpiBreakdown,
    CpiSolution,
    compute_breakdown,
    solve_cpi,
)
from repro.core.regression import (
    LinearFit,
    PiecewiseFit,
    fit_line,
    fit_two_segments,
)
from repro.core.pivot import PivotAnalysis, pivot_point, representative_configuration
from repro.core.saturation import SaturationResult
from repro.core.extrapolation import ExtrapolationReport, evaluate_extrapolation
from repro.core.baselines import single_line_model, cached_setup_model
from repro.core.validation import Check, assert_valid, validate_result

__all__ = [
    "DatabaseIronLaw",
    "tps",
    "CpiBreakdown",
    "CpiSolution",
    "compute_breakdown",
    "solve_cpi",
    "LinearFit",
    "PiecewiseFit",
    "fit_line",
    "fit_two_segments",
    "PivotAnalysis",
    "pivot_point",
    "representative_configuration",
    "SaturationResult",
    "ExtrapolationReport",
    "evaluate_extrapolation",
    "single_line_model",
    "cached_setup_model",
    "Check",
    "assert_valid",
    "validate_result",
]
