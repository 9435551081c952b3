"""Weighted transaction mix."""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.workload.spec import TransactionSpec


class TransactionMix:
    """The workload's transaction types, each with its weight in this
    mix (a phase's or the stationary blend's, not necessarily its own).

    A transaction's type is drawn in the walk kernel with the rest of
    its plan (:meth:`repro.odb.transactions._SegmentSampler.draw`): one
    uniform draw, and the first type whose :attr:`cdf` entry is at
    least that draw.
    """

    def __init__(self, transactions: tuple[TransactionSpec, ...],
                 weights: tuple[float, ...]):
        if not transactions:
            raise ValueError("mix needs at least one transaction")
        if len(weights) != len(transactions):
            raise ValueError("mix needs one weight per transaction")
        self.transactions = transactions
        self.weights = weights
        total = sum(weights)
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        #: Cumulative normalized weights; a plan takes the first
        #: transaction whose entry is >= its uniform draw.
        self.cdf: list[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self.cdf.append(running)
        self.cdf[-1] = 1.0

    def active(self) -> "TransactionMix":
        """The stationary mix plans currently draw from: this one."""
        return self


class PhasedTransactionMix(TransactionMix):
    """A mix whose weights cycle through phases over simulated time.

    ``schedule`` is ``(duration_s, weights)`` per phase; the phases
    repeat in order for the whole run (the paper's Figures 12-14
    new-order / payment waves).  ``clock`` reads the simulation time —
    the engine's ``now`` — at each :meth:`active` call, which a client
    makes per transaction.  ``weights`` (the base attribute) holds the
    stationary duration-weighted blend, which is what popularity/prewarm
    analysis should see; a plan draws from the active phase's own
    weighted mix, costing the same single uniform draw as the
    stationary case.
    """

    def __init__(self, transactions: tuple[TransactionSpec, ...],
                 weights: tuple[float, ...],
                 schedule: tuple[tuple[float, tuple[float, ...]], ...],
                 clock: Callable[[], float]):
        super().__init__(transactions, weights)
        if not schedule:
            raise ValueError("phased mix needs at least one phase")
        self._phase_mixes = [TransactionMix(transactions, phase_weights)
                             for _, phase_weights in schedule]
        self._ends: list[float] = []
        elapsed = 0.0
        for duration_s, _ in schedule:
            if duration_s <= 0:
                raise ValueError("phase durations must be positive")
            elapsed += duration_s
            self._ends.append(elapsed)
        self.cycle_s = elapsed
        self._clock = clock

    def active_phase(self) -> int:
        """Index of the phase the clock is currently inside."""
        position = self._clock() % self.cycle_s
        index = bisect_right(self._ends, position)
        return min(index, len(self._phase_mixes) - 1)

    def active(self) -> TransactionMix:
        """The active phase's own stationary mix."""
        return self._phase_mixes[self.active_phase()]
