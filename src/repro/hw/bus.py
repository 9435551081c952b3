"""Front-side bus and IOQ (in-order queue) timing model.

Section 5.2 of the paper attributes the CPI growth with processor count
to bus traffic: as utilization rises, the time for a bus transaction to
complete once it enters the IOQ rises (Figure 16), which lengthens every
L3 miss (the Table 4 ``L3`` term adds the bus-transaction time in excess
of the 1P baseline).

The model here is an M/G/1-style queue on the shared bus:

- every L3 miss generates a line fill, and dirty evictions add writeback
  transactions;
- each transaction occupies the bus for ``occupancy_cycles``;
- utilization ``U = rate_per_cycle * occupancy_cycles`` (capped);
- IOQ time ``= base + queue_weight * occupancy * U / (1 - U)``.

The ``queue_weight`` factor folds in snoop and arbitration costs that a
pure data-phase M/G/1 would understate on a shared MP bus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.machine import BusConfig


@dataclass(frozen=True)
class BusLoad:
    """A bus demand operating point."""

    utilization: float
    transactions_per_cycle: float


class BusModel:
    """Turns bus transaction rates into utilization and IOQ latency."""

    def __init__(self, config: BusConfig):
        self.config = config

    def utilization(self, transactions_per_cycle: float) -> float:
        """Fraction of cycles the bus is transferring data.

        ``transactions_per_cycle`` is the system-wide rate (all CPUs).
        The result is capped at ``max_utilization`` — a saturated bus
        backpressures the CPUs rather than exceeding 100% occupancy.
        """
        if transactions_per_cycle < 0:
            raise ValueError("transaction rate must be >= 0")
        raw = transactions_per_cycle * self.config.occupancy_cycles
        return min(raw, self.config.max_utilization)

    def transaction_time(self, utilization: float) -> float:
        """Average cycles for a transaction to complete once in the IOQ.

        At zero load this is ``base_transaction_cycles`` (102 on the 1P
        Xeon); queueing delay grows hyperbolically with utilization.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization out of range: {utilization}")
        u = min(utilization, self.config.max_utilization)
        queue = self.config.queue_weight * self.config.occupancy_cycles * u / (1.0 - u)
        return self.config.base_transaction_cycles + queue

    def load_for(self, mpi: float, cpi: float, processors: int,
                 writeback_ratio: float = 0.0) -> BusLoad:
        """Operating point for a given per-CPU miss profile.

        Each CPU retires ``1 / cpi`` instructions per cycle and so issues
        ``mpi / cpi`` line fills per cycle; dirty evictions add
        ``writeback_ratio`` extra transactions per fill.
        """
        if mpi < 0 or writeback_ratio < 0:
            raise ValueError("rates must be >= 0")
        if cpi <= 0:
            raise ValueError("cpi must be positive")
        if processors <= 0:
            raise ValueError("processors must be positive")
        rate = processors * (mpi / cpi) * (1.0 + writeback_ratio)
        return BusLoad(utilization=self.utilization(rate),
                       transactions_per_cycle=rate)
