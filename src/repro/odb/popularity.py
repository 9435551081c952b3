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
from typing import TYPE_CHECKING

from repro.db.blocks import BlockSpace
from repro.db.buffer_cache import BufferCache
from repro.hw.analytic import zipf_popularities
from repro.hw.sampling import seeded
from repro.odb.transactions import touch_draw

if TYPE_CHECKING:
    from repro.odb.mix import TransactionMix


@dataclass(frozen=True)
class UnitPopularity:
    """Touch rate (per transaction) of one distinct unit."""

    segment: str
    index: int
    rate: float
    per_warehouse: bool


def unit_popularities(space: BlockSpace,
                      mix: TransactionMix) -> list[UnitPopularity]:
    """Per-distinct-unit touch rates of ``mix``, descending.

    Rates for per-warehouse units are *per warehouse* (i.e. already
    divided by W, since a uniformly chosen warehouse receives 1/W of the
    segment's traffic).
    """
    total_weight = sum(mix.weights)
    rates: dict[tuple[str, int], float] = {}
    for transaction, mix_weight in zip(mix.transactions, mix.weights):
        share = mix_weight / total_weight
        for rule in transaction.touches:
            segment = space.segment(rule.segment)
            touch_rate = share * rule.count
            window, skew, first = touch_draw(rule, segment.units)
            if segment.per_warehouse:
                touch_rate /= space.warehouses
            for rank, weight in enumerate(zipf_popularities(window, skew)):
                key = (rule.segment, (first + rank) % segment.units)
                rates[key] = rates.get(key, 0.0) + touch_rate * weight
    result = [
        UnitPopularity(segment=name, index=index, rate=rate,
                       per_warehouse=space.segment(name).per_warehouse)
        for (name, index), rate in rates.items()
    ]
    result.sort(key=lambda u: u.rate, reverse=True)
    return result


def segment_write_fractions(mix: TransactionMix) -> dict[str, float]:
    """Probability a touch on each segment is a write (mix-weighted)."""
    touch_rate: dict[str, float] = {}
    write_rate: dict[str, float] = {}
    total_weight = sum(mix.weights)
    for transaction, mix_weight in zip(mix.transactions, mix.weights):
        share = mix_weight / total_weight
        for rule in transaction.touches:
            touch_rate[rule.segment] = (touch_rate.get(rule.segment, 0.0)
                                        + share * rule.count)
            write_rate[rule.segment] = (write_rate.get(rule.segment, 0.0)
                                        + share * rule.count * rule.write_prob)
    return {segment: write_rate[segment] / rate
            for segment, rate in touch_rate.items() if rate > 0}


def steady_state_fill(cache: BufferCache, space: BlockSpace,
                      mix: TransactionMix) -> int:
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
    The dirty bits draw from a kernel stream seeded ``0x5EED``
    (:func:`repro.hw.sampling.seeded`), so the fill depends on the
    space, the mix and the capacity alone.

    The cache must be empty (``ValueError`` otherwise); it is filled in
    one kernel call (:meth:`BufferCache.fill`), which also zeroes its
    counters.
    """
    if cache.resident_units:
        raise ValueError("steady_state_fill needs an empty cache")
    write_fractions = segment_write_fractions(mix)
    selected: list[tuple[str, int, int]] = []  # (segment, index, copies)
    budget = cache.capacity_units
    for unit in unit_popularities(space, mix):
        if budget <= 0:
            break
        copies = space.warehouses if unit.per_warehouse else 1
        copies = min(copies, budget)
        selected.append((unit.segment, unit.index, copies))
        budget -= copies
    # The units are distinct and fit the empty cache, so installing them
    # one by one never refreshes or evicts: the kernel appends them in
    # order.  A unit's copies are one warehouse stride apart.
    cache.fill([(space.block_id(segment, 0, index), copies,
                 write_fractions.get(segment, 0.0))
                for segment, index, copies in reversed(selected)],
               space.units_per_warehouse, seeded(0x5EED))
    return cache.resident_units
