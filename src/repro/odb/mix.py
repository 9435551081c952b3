"""Weighted transaction mix."""

from __future__ import annotations

from bisect import bisect_right
from random import Random
from typing import Callable

from repro.odb.transactions import STANDARD_PROFILES, TransactionProfile


class TransactionMix:
    """Samples transaction types by weight."""

    def __init__(self, profiles: tuple[TransactionProfile, ...] = STANDARD_PROFILES):
        if not profiles:
            raise ValueError("mix needs at least one profile")
        self.profiles = profiles
        total = sum(p.weight for p in profiles)
        if total <= 0:
            raise ValueError("mix weights must sum to a positive value")
        #: Cumulative normalized weights; ``pick`` takes the first profile
        #: whose entry is >= the uniform draw.
        self.cdf: list[float] = []
        running = 0.0
        for profile in profiles:
            running += profile.weight / total
            self.cdf.append(running)
        self.cdf[-1] = 1.0

    def active(self) -> "TransactionMix":
        """The stationary mix ``pick`` currently draws from: this one."""
        return self

    def pick(self, rng: Random) -> TransactionProfile:
        """Draw one transaction type from the mix."""
        u = rng.random()
        for probability, profile in zip(self.cdf, self.profiles):
            if u <= probability:
                return profile
        return self.profiles[-1]

    def by_name(self, name: str) -> TransactionProfile:
        """The mix entry for ``name``; raises ``KeyError`` if unknown."""
        for profile in self.profiles:
            if profile.name == name:
                return profile
        known = ", ".join(p.name for p in self.profiles)
        raise KeyError(f"unknown transaction {name!r}; known: {known}")

    def share_of(self, name: str) -> float:
        """Normalized weight of one transaction type."""
        total = sum(p.weight for p in self.profiles)
        return self.by_name(name).weight / total


class PhasedTransactionMix(TransactionMix):
    """A mix whose weights cycle through phases over simulated time.

    ``schedule`` is ``(duration_s, profiles)`` per phase; the phases
    repeat in order for the whole run (the paper's Figures 12-14
    new-order / payment waves).  ``clock`` reads the simulation time —
    the engine's ``now`` — at each pick.  ``profiles`` (the base
    attribute) holds the stationary duration-weighted blend, which is
    what popularity/prewarm analysis should see; ``pick`` delegates to
    the active phase's own weighted mix, costing the same single
    uniform draw as the stationary case.
    """

    def __init__(self, profiles: tuple[TransactionProfile, ...],
                 schedule: tuple[
                     tuple[float, tuple[TransactionProfile, ...]], ...],
                 clock: Callable[[], float]):
        super().__init__(profiles)
        if not schedule:
            raise ValueError("phased mix needs at least one phase")
        self._phase_mixes = [TransactionMix(phase_profiles)
                             for _, phase_profiles in schedule]
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

    def pick(self, rng: Random) -> TransactionProfile:
        """Draw one transaction type from the active phase's mix."""
        return self.active().pick(rng)
