"""Transaction planning and the prewarm in pure Python: the oracles of
the compiled ones.

:func:`plan_transaction`, :class:`TransactionPlan` and :func:`pick` are
the DES's planner as it was before it moved into the walk kernel
(``sample_plans`` in ``repro/hw/_walk.c``), unchanged but for
``pick``, which was ``TransactionMix.pick``: every draw is a
``random.Random`` call, in the order the kernel must reproduce.

:func:`oracle_prewarm` fills an OrderedDict LRU
(:class:`~tests.db.reference_lru.ReferenceLru`) one install per unit,
then replays plans from :func:`plan_transaction` into it, touch by
touch.  Nothing of the cache under test takes part, so the compiled
fill, sampler and LRU replay are checked together.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from random import Random

from repro.odb.popularity import segment_write_fractions, unit_popularities
from repro.sim.randomness import derive_seed
from repro.workload.spec import TransactionSpec

from tests.db.reference_lru import ReferenceLru


@dataclass(frozen=True)
class TransactionPlan:
    """A concrete transaction instance: what to lock and touch."""

    profile: TransactionSpec
    warehouse: int
    district: int
    lock_keys: tuple[tuple, ...]
    #: (block_id, is_write) in access order.
    touches: tuple[tuple[int, bool], ...]


def pick(mix, rng: Random) -> TransactionSpec:
    """Draw one transaction type from ``mix``'s active stationary mix:
    the first type whose cumulative weight is >= one uniform draw."""
    mix = mix.active()
    u = rng.random()
    for probability, transaction in zip(mix.cdf, mix.transactions):
        if u <= probability:
            return transaction
    return mix.transactions[-1]


def plan_transaction(rng: Random, profile: TransactionSpec, sampler,
                     warehouses: int,
                     remote_prob: float = 0.10) -> TransactionPlan:
    """Instantiate a transaction: pick warehouse, district, blocks, locks.

    ``remote_prob`` is the chance any given touch goes to a remote
    warehouse (TPC-C's remote order lines / customer payments).
    """
    # The randrange draws are inlined as CPython's
    # Random._randbelow_with_getrandbits loop (k = n.bit_length(),
    # redraw while >= n): same getrandbits sequence, so the stream stays
    # pinned, minus two interpreter frames per draw.
    getrandbits = rng.getrandbits
    wh_bits = warehouses.bit_length()
    warehouse = getrandbits(wh_bits)
    while warehouse >= warehouses:
        warehouse = getrandbits(wh_bits)
    district = getrandbits(4)
    while district >= 10:
        district = getrandbits(4)
    lock_keys: list[tuple] = []
    if "warehouse" in profile.locks:
        lock_keys.append(("wh", warehouse))
    if "district" in profile.locks:
        lock_keys.append(("dist", warehouse))
    touches: list[tuple[int, bool]] = []
    append = touches.append
    rand = rng.random
    multi = warehouses > 1
    for (cdf, modulus, stride, offset, count, write_prob,
         _) in sampler.resolve(profile):
        for _ in range(count):
            target = warehouse
            if multi and rand() < remote_prob:
                target = getrandbits(wh_bits)
                while target >= warehouses:
                    target = getrandbits(wh_bits)
            index = bisect_left(cdf, rand())
            if modulus:
                index %= modulus
            append((offset + stride * target + index, rand() < write_prob))
    return TransactionPlan(
        profile=profile,
        warehouse=warehouse,
        district=district,
        lock_keys=tuple(lock_keys),
        touches=tuple(touches),
    )


def python_stream(system, name: str) -> Random:
    """``system``'s kernel stream ``name`` as a fresh ``random.Random``
    from the same seed."""
    return Random(derive_seed(system.streams.root_seed, name))


def reference_fill(reference: ReferenceLru, space, mix) -> None:
    """``steady_state_fill`` as one ``install`` per unit, least popular
    first, with the same fixed-seed dirty draws."""
    rng = Random(0x5EED)
    write_fractions = segment_write_fractions(mix)
    selected = []
    budget = reference.capacity
    for unit in unit_popularities(space, mix):
        if budget <= 0:
            break
        copies = min(space.warehouses if unit.per_warehouse else 1, budget)
        selected.append((unit.segment, unit.index, copies))
        budget -= copies
    for segment, index, copies in reversed(selected):
        dirty_prob = write_fractions.get(segment, 0.0)
        for warehouse in range(copies):
            reference.install(space.block_id(segment, warehouse, index),
                              rng.random() < dirty_prob)


def oracle_prewarm(system, plans: int,
                   rng: Random | None = None) -> ReferenceLru:
    """The LRU state ``system.prewarm_buffer_cache(plans)`` must leave,
    drawing the plans from ``rng``: by default a Python twin of
    ``system``'s own kernel stream ``prewarm``."""
    reference = ReferenceLru(system.buffer_cache.capacity_units)
    reference_fill(reference, system.space, system.mix)
    if rng is None:
        rng = python_stream(system, "prewarm")
    for _ in range(plans):
        plan = plan_transaction(rng, pick(system.mix, rng), system.sampler,
                                system.config.warehouses,
                                system.sampler.remote_prob)
        for block_id, write in plan.touches:
            if not reference.lookup(block_id, write):
                reference.install(block_id, write)
    return reference
