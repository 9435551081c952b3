"""The prewarm in pure Python: the oracle of the compiled one.

:func:`oracle_prewarm` fills an OrderedDict LRU
(:class:`~tests.db.reference_lru.ReferenceLru`) one install per unit,
then replays DES plans from :func:`~repro.odb.transactions.plan_transaction`
into it, touch by touch.  Nothing of the cache under test takes part,
so the compiled fill, sampler and LRU replay are checked together.
"""

from random import Random

from repro.odb.popularity import segment_write_fractions, unit_popularities
from repro.odb.transactions import plan_transaction

from tests.db.reference_lru import ReferenceLru


def reference_fill(reference: ReferenceLru, space, profiles) -> None:
    """``steady_state_fill`` as one ``install`` per unit, least popular
    first, with the same fixed-seed dirty draws."""
    rng = Random(0x5EED)
    write_fractions = segment_write_fractions(profiles)
    selected = []
    budget = reference.capacity
    for unit in unit_popularities(space, profiles):
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


def oracle_prewarm(system, plans: int) -> ReferenceLru:
    """The LRU state ``system.prewarm_buffer_cache(plans)`` must leave,
    drawing the plans from ``system``'s own ``"prewarm"`` stream."""
    reference = ReferenceLru(system.buffer_cache.capacity_units)
    reference_fill(reference, system.space, system.mix.profiles)
    rng = system.streams.stream("prewarm")
    for _ in range(plans):
        plan = plan_transaction(rng, system.mix.pick(rng), system.sampler,
                                system.config.warehouses,
                                system.remote_touch_prob)
        for block_id, write in plan.touches:
            if not reference.lookup(block_id, write):
                reference.install(block_id, write)
    return reference
