"""Statistics helpers for simulation outputs.

Two shapes of measurement recur throughout the system model:

- :class:`Counter` — monotonically increasing event counts (transactions
  committed, context switches, disk reads) with support for interval
  snapshots, which is what the EMON sampling layer consumes.
- :class:`Tally` — the running mean of discrete observations
  (latencies, group-commit sizes).
"""

from __future__ import annotations


class Counter:
    """A named monotone event counter."""

    __slots__ = ("name", "count")

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increment the counter; negative and NaN amounts are rejected."""
        if not amount >= 0:
            raise ValueError(f"counter {self.name!r} decremented by {amount}")
        self.count += amount

    def snapshot(self) -> float:
        """Current value, for interval deltas taken by a sampler."""
        return self.count


class Tally:
    """Streaming mean (Welford's update) over discrete observations."""

    __slots__ = ("name", "n", "_mean")

    def __init__(self, name: str = ""):
        self.name = name
        self.n = 0
        self._mean = 0.0

    def record(self, value: float) -> None:
        """Fold one observation into the running mean."""
        self.n += 1
        delta = value - self._mean
        self._mean += delta / self.n

    @property
    def mean(self) -> float:
        """Mean of the recorded observations."""
        return self._mean if self.n else 0.0

