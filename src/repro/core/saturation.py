"""Client-count search for the 90% CPU-utilization target (Table 1).

"In our experimental evaluation, we achieve our goal of 90+% CPU
utilization at each configuration by adjusting the number of clients as
appropriate in a range from 8 to 64" (Section 3.2.1).  This module
automates that adjustment: CPU utilization is monotone (up to noise) in
the client count, so a coarse doubling phase followed by a binary search
finds the smallest client count that reaches the target — or reports the
best achievable utilization when even the maximum client count cannot
reach it (the I/O-bound regime).

The search is a generator (:func:`saturation_search`) that yields the
next client count to measure and receives its utilization, so a caller
can advance many searches in lockstep and measure each round's probes
together (:mod:`repro.experiments.exp_table1`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of the client search for one (W, P) configuration."""

    clients: int
    utilization: float
    reached_target: bool
    evaluations: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        marker = "" if self.reached_target else " (I/O bound)"
        return f"{self.clients} clients @ {self.utilization:.0%}{marker}"


def saturation_search(target: float = 0.90, minimum: int = 1,
                      maximum: int = 80
                      ) -> Generator[int, float, SaturationResult]:
    """The search for the smallest client count reaching ``target``.

    Yields each client count to measure (never the same count twice)
    and expects that count's CPU utilization in [0, 1] back through
    ``send``; returns the :class:`SaturationResult` (as
    ``StopIteration.value``).  When even ``maximum`` clients cannot
    reach the target, the result carries ``reached_target=False`` and
    the utilization at ``maximum`` — that is the paper's criterion for
    an I/O-bound configuration (the 1200W column it excludes).
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must be in (0, 1]")
    if minimum < 1 or maximum < minimum:
        raise ValueError("need 1 <= minimum <= maximum")
    measured: dict[int, float] = {}

    def run(clients: int):
        if clients not in measured:
            measured[clients] = yield clients
        return measured[clients]

    # Doubling phase: find an upper bracket that reaches the target.
    upper = minimum
    while (yield from run(upper)) < target:
        if upper >= maximum:
            return SaturationResult(clients=maximum,
                                    utilization=(yield from run(maximum)),
                                    reached_target=False,
                                    evaluations=len(measured))
        upper = min(maximum, upper * 2)
    # Binary search for the smallest satisfying count in (lo, upper].
    lo = minimum
    hi = upper
    while lo < hi:
        mid = (lo + hi) // 2
        if (yield from run(mid)) >= target:
            hi = mid
        else:
            lo = mid + 1
    return SaturationResult(clients=hi, utilization=(yield from run(hi)),
                            reached_target=True, evaluations=len(measured))
