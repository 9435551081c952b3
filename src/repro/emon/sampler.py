"""Round-robin interval sampling.

EMON measures one event group at a time: "During the measurement period,
each event is measured for ten seconds in a round-robin fashion.  The
event measurements are repeated six times" (Section 3.3).  Because each
event only sees its own slice of time, a bursty event (kernel activity
at low I/O rates) is estimated with visible variance — the source of the
noise the paper notes in the OS-space CPI at small warehouse counts.

The sampler is source-agnostic: anything that can run for an interval
and report per-event deltas can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.emon.events import EmonEvent

#: Counters per pair: "18 performance counters grouped into 9 pairs,
#: with each pair associated to a particular subset of events"
#: (Section 3.3).  At most this many events of one pair fit a rotation,
#: which is why EMON must rotate event groups over time.
COUNTERS_PER_PAIR = 2

#: A measurement source: advance one interval, return event deltas.
IntervalSource = Callable[[], dict[str, float]]


@dataclass(frozen=True)
class SampledRates:
    """Per-interval estimates for every event across repetitions."""

    events: tuple[str, ...]
    #: rates[event][repetition] — the per-interval count of that event
    #: in the rotation slot where it was being measured.
    samples: dict[str, tuple[float, ...]]

    def mean(self, alias: str) -> float:
        """Mean of the recorded interval values."""
        values = self.samples[alias]
        return sum(values) / len(values) if values else 0.0

    def stdev(self, alias: str) -> float:
        """Sample standard deviation of the interval values."""
        values = self.samples[alias]
        n = len(values)
        if n < 2:
            return 0.0
        mu = self.mean(alias)
        return (sum((v - mu) ** 2 for v in values) / (n - 1)) ** 0.5

    def coefficient_of_variation(self, alias: str) -> float:
        """stdev / mean, the paper's run-variability statistic."""
        mu = self.mean(alias)
        return self.stdev(alias) / mu if mu else 0.0


def _rotation_groups(events: Sequence[EmonEvent]) -> list[list[EmonEvent]]:
    """Split events into rotations that fit the counter pairs."""
    groups: list[list[EmonEvent]] = []
    for event in events:
        placed = False
        for group in groups:
            same_pair = sum(1 for e in group
                            if e.counter_group == event.counter_group)
            if same_pair < COUNTERS_PER_PAIR:
                group.append(event)
                placed = True
                break
        if not placed:
            groups.append([event])
    return groups


class RoundRobinSampler:
    """Measures events one rotation group at a time."""

    def __init__(self, events: Sequence[EmonEvent], repetitions: int = 6):
        if not events:
            raise ValueError("need at least one event")
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.events = tuple(events)
        self.repetitions = repetitions
        self.groups = _rotation_groups(events)

    @property
    def intervals_needed(self) -> int:
        """Total measurement intervals (groups x repetitions)."""
        return len(self.groups) * self.repetitions

    def measure(self, source: IntervalSource) -> SampledRates:
        """Run the full rotation schedule against ``source``.

        The source is advanced once per (group, repetition) interval;
        only the active group's events are recorded from that interval —
        exactly the information loss real EMON sampling has.
        """
        samples: dict[str, list[float]] = {e.alias: [] for e in self.events}
        for _repetition in range(self.repetitions):
            for group in self.groups:
                deltas = source()
                for event in group:
                    samples[event.alias].append(deltas.get(event.alias, 0.0))
        return SampledRates(
            events=tuple(e.alias for e in self.events),
            samples={alias: tuple(values) for alias, values in samples.items()},
        )
