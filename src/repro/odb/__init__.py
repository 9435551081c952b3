"""The ODB workload: an order-entry OLTP benchmark (Section 3.1).

ODB simulates an order-entry business: a collection of warehouses, each
supplying ten sales districts of three thousand customers, against which
clients run five transaction types (entering and delivering orders,
recording payments, order-status and stock-level checks).

- :mod:`~repro.odb.schema` — database sizing: ~100 MB per warehouse
  including indices, a global item catalog, two 25 GB log files.
- :mod:`~repro.odb.transactions` — transaction planning in the walk
  kernel, straight from the workload spec's transaction types (block
  touches, lock kinds, user instruction path lengths); the five ODB
  types are the ``odb-standard`` spec (:mod:`repro.workload.standard`).
- :mod:`~repro.odb.mix` — the weighted transaction mix.
- :mod:`~repro.odb.popularity` — the analytic steady-state cache fill.
- :mod:`~repro.odb.client` — client/server process pairs driving the
  database engine.
- :mod:`~repro.odb.system` — the assembled testbed: one call builds the
  machine, OS, database, and clients, runs warm-up plus a measurement
  window, and returns system-level metrics.

ODB is *not* a compliant TPC-C benchmark (neither was the paper's).
"""

from repro.odb.schema import odb_segments
from repro.odb.mix import TransactionMix
from repro.odb.system import OdbConfig, OdbSystem, SystemMetrics

__all__ = [
    "odb_segments",
    "TransactionMix",
    "OdbConfig",
    "OdbSystem",
    "SystemMetrics",
]
