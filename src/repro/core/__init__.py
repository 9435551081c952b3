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
