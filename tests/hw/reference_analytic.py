"""Che's approximation of an LRU cache under the independent reference
model, kept as the analytic oracle for the compiled cache.

``test_analytic.py`` runs an IRM Zipf stream through a fully associative
:class:`~repro.hw.cache.SetAssociativeCache` and compares its hit rate
with :func:`irm_hit_rate`, which is accurate for LRU across skews.
"""

from __future__ import annotations

import math
from typing import Sequence


def che_characteristic_time(popularities: Sequence[float],
                            capacity: int,
                            tolerance: float = 1e-9,
                            max_iterations: int = 200) -> float:
    """Solve Che's fixed point: sum_i (1 - e^{-p_i T}) = capacity.

    ``T`` is the characteristic time (in references) a line survives in
    an LRU cache of ``capacity`` lines under IRM traffic.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if not popularities:
        raise ValueError("need a popularity distribution")
    if capacity >= len(popularities):
        return math.inf
    total = sum(popularities)
    if total <= 0:
        raise ValueError("popularities must have positive mass")
    probabilities = [p / total for p in popularities]

    def occupancy(t: float) -> float:
        return sum(1.0 - math.exp(-p * t) for p in probabilities)

    low, high = 0.0, float(capacity)
    while occupancy(high) < capacity:
        high *= 2.0
        if high > 1e18:  # pragma: no cover - defensive
            return math.inf
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        if occupancy(mid) < capacity:
            low = mid
        else:
            high = mid
        if high - low < tolerance * max(1.0, high):
            break
    return 0.5 * (low + high)


def irm_hit_rate(popularities: Sequence[float], capacity: int) -> float:
    """Steady-state LRU hit rate under IRM, by Che's approximation.

    ``hit = sum_i p_i (1 - e^{-p_i T})`` with T the characteristic time.
    """
    if capacity <= 0:
        return 0.0
    if capacity >= len(popularities):
        return 1.0
    total = sum(popularities)
    probabilities = [p / total for p in popularities]
    t = che_characteristic_time(probabilities, capacity)
    if math.isinf(t):
        return 1.0
    return sum(p * (1.0 - math.exp(-p * t)) for p in probabilities)
