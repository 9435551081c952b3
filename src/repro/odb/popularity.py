"""Analytic block-unit popularity and steady-state cache fill.

The paper warms the database for twenty minutes (on the order of a
million transactions) before measuring, so the buffer cache it measures
is *full* and in popularity steady state.  Replaying that many
transactions through the DES would dominate runtime, so this module
computes the reference-rate of every block unit directly from the
transaction mix and installs the most popular units up to capacity —
the LRU steady state for an IRM-style (independent reference model)
access pattern.

Warehouses are symmetric: a unit's popularity depends only on its
segment and within-segment index, so the ranking is computed once per
distinct unit and multiplied across warehouses.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from repro.db.blocks import BlockSpace
from repro.db.buffer_cache import BufferCache
from repro.odb.transactions import TransactionProfile, STANDARD_PROFILES
from repro.sim.randomness import zipf_cdf


@dataclass(frozen=True)
class UnitPopularity:
    """Touch rate (per transaction) of one distinct unit."""

    segment: str
    index: int
    rate: float
    per_warehouse: bool


def _zipf_weights(n: int, skew: float) -> list[float]:
    cdf = zipf_cdf(n, skew)
    weights = [cdf[0]]
    for previous, current in zip(cdf, cdf[1:]):
        weights.append(current - previous)
    return weights


def unit_popularities(
        space: BlockSpace,
        profiles: tuple[TransactionProfile, ...] = STANDARD_PROFILES,
) -> list[UnitPopularity]:
    """Per-distinct-unit touch rates, descending.

    Rates for per-warehouse units are *per warehouse* (i.e. already
    divided by W, since a uniformly chosen warehouse receives 1/W of the
    segment's traffic).
    """
    total_weight = sum(p.weight for p in profiles)
    rates: dict[tuple[str, int], float] = {}
    for profile in profiles:
        share = profile.weight / total_weight
        for spec in profile.touches:
            segment = space.segment(spec.segment)
            touch_rate = share * spec.count
            if spec.fixed_index is not None:
                weights = [1.0]
                indices = [spec.fixed_index % segment.units]
            elif spec.append_hot:
                window = max(4, segment.units // 50)
                weights = _zipf_weights(window, 1.2)
                indices = range(window)
            else:
                weights = _zipf_weights(segment.units, spec.skew)
                indices = range(segment.units)
            if segment.per_warehouse:
                touch_rate /= space.warehouses
            for index, weight in zip(indices, weights):
                key = (spec.segment, index % segment.units)
                rates[key] = rates.get(key, 0.0) + touch_rate * weight
    result = [
        UnitPopularity(segment=name, index=index, rate=rate,
                       per_warehouse=space.segment(name).per_warehouse)
        for (name, index), rate in rates.items()
    ]
    result.sort(key=lambda u: u.rate, reverse=True)
    return result


def segment_write_fractions(
        profiles: tuple[TransactionProfile, ...] = STANDARD_PROFILES,
) -> dict[str, float]:
    """Probability a touch on each segment is a write (mix-weighted)."""
    touch_rate: dict[str, float] = {}
    write_rate: dict[str, float] = {}
    total_weight = sum(p.weight for p in profiles)
    for profile in profiles:
        share = profile.weight / total_weight
        for spec in profile.touches:
            touch_rate[spec.segment] = (touch_rate.get(spec.segment, 0.0)
                                        + share * spec.count)
            write_rate[spec.segment] = (write_rate.get(spec.segment, 0.0)
                                        + share * spec.count * spec.write_prob)
    return {segment: write_rate[segment] / rate
            for segment, rate in touch_rate.items() if rate > 0}


def steady_state_fill(cache: BufferCache, space: BlockSpace,
                      profiles: tuple[TransactionProfile, ...] = STANDARD_PROFILES,
                      rng: Random | None = None) -> int:
    """Install the most popular units up to cache capacity.

    Returns the number of units installed.  Per-warehouse units are
    installed warehouse-by-warehouse (a partially resident popularity
    tier lands on the lowest-numbered warehouses; accesses are uniform
    over warehouses, so the asymmetry averages out).

    Units are installed from least to most popular, so the LRU order
    ends with the hottest units most recently used.  Each unit starts
    dirty with its segment's write fraction — in steady state a unit
    near eviction has been written with that probability, so dirty
    evictions flow at the right rate from the first measured second.

    The cache must be empty (``ValueError`` otherwise); its contents are
    handed over with one :meth:`BufferCache.restore`, which also zeroes
    its counters.
    """
    if cache.resident_units:
        raise ValueError("steady_state_fill needs an empty cache")
    if rng is None:
        rng = Random(0x5EED)
    write_fractions = segment_write_fractions(profiles)
    selected: list[tuple[str, int, int]] = []  # (segment, index, copies)
    budget = cache.capacity_units
    for unit in unit_popularities(space, profiles):
        if budget <= 0:
            break
        copies = space.warehouses if unit.per_warehouse else 1
        copies = min(copies, budget)
        selected.append((unit.segment, unit.index, copies))
        budget -= copies
    # The units are distinct and fit the empty cache, so installing them
    # one by one would never refresh or evict: build the LRU-ordered
    # contents directly.  A unit's copies are one warehouse stride apart.
    stride = space.units_per_warehouse
    random = rng.random
    state: dict[int, bool] = {}
    for segment, index, copies in reversed(selected):
        dirty_prob = write_fractions.get(segment, 0.0)
        base = space.block_id(segment, 0, index)
        for warehouse in range(copies):
            state[base + warehouse * stride] = random() < dirty_prob
    cache.restore(state)
    return len(state)


def expected_hit_rate(space: BlockSpace, capacity_units: int,
                      profiles: tuple[TransactionProfile, ...] = STANDARD_PROFILES,
                      ) -> float:
    """IRM-predicted buffer hit rate for a given capacity.

    The mass of the popularity distribution covered by the top
    ``capacity_units`` units.  Useful as an analytic cross-check of the
    simulated steady state (they agree up to LRU-vs-IRM error).
    """
    if capacity_units <= 0:
        return 0.0
    populations = unit_popularities(space, profiles)
    total = sum(u.rate * (space.warehouses if u.per_warehouse else 1)
                for u in populations)
    covered = 0.0
    budget = capacity_units
    for unit in populations:
        if budget <= 0:
            break
        copies = space.warehouses if unit.per_warehouse else 1
        take = min(copies, budget)
        covered += unit.rate * take
        budget -= take
    return covered / total if total else 0.0
