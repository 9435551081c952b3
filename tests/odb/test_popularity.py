"""Tests for analytic popularity and the steady-state cache fill."""

from random import Random

import pytest

from repro.db.buffer_cache import BufferCache
from repro.odb import OdbConfig, OdbSystem
from repro.odb.popularity import (
    segment_write_fractions,
    steady_state_fill,
    unit_popularities,
)
from repro.odb.schema import OdbSchema
from repro.odb.transactions import STANDARD_PROFILES
from repro.workload import compile_workload, workload_by_name

from tests.db.reference_blocks import total_units
from tests.db.reference_lru import dirty_units, lookup, restore


def space_for(warehouses=10):
    return OdbSchema(warehouses).build_block_space()


class TestUnitPopularities:
    def test_sorted_descending(self):
        pops = unit_popularities(space_for())
        rates = [u.rate for u in pops]
        assert rates == sorted(rates, reverse=True)

    def test_district_unit_is_hottest_per_warehouse_unit(self):
        pops = unit_popularities(space_for())
        per_warehouse = [u for u in pops if u.per_warehouse]
        assert per_warehouse[0].segment in ("district", "warehouse")

    def test_rates_positive(self):
        assert all(u.rate > 0 for u in unit_popularities(space_for()))

    def test_total_rate_matches_touch_count(self):
        from repro.odb.transactions import STANDARD_PROFILES

        space = space_for(warehouses=5)
        pops = unit_popularities(space)
        total = sum(u.rate * (space.warehouses if u.per_warehouse else 1)
                    for u in pops)
        total_weight = sum(p.weight for p in STANDARD_PROFILES)
        expected = sum(p.weight * sum(t.count for t in p.touches)
                       for p in STANDARD_PROFILES) / total_weight
        assert total == pytest.approx(expected, rel=1e-6)


class TestSteadyStateFill:
    def test_fills_to_capacity_when_data_exceeds_cache(self):
        space = space_for(warehouses=50)
        cache = BufferCache(5000)
        installed = steady_state_fill(cache, space)
        assert installed == 5000
        assert cache.resident_units == 5000

    def test_small_database_installs_every_touchable_unit(self):
        space = space_for(warehouses=2)
        cache = BufferCache(10_000_000)
        installed = steady_state_fill(cache, space)
        # Only units with a nonzero touch rate enter steady state:
        # append-only segments are touched in their hot windows only.
        touchable = sum(space.warehouses if u.per_warehouse else 1
                        for u in unit_popularities(space))
        assert installed == touchable
        assert installed < total_units(space)

    def test_hot_units_resident_after_fill(self):
        space = space_for(warehouses=50)
        cache = BufferCache(5000)
        steady_state_fill(cache, space)
        # District and warehouse units (hottest) must be resident.
        for warehouse in range(50):
            assert space.block_id("district", warehouse, 0) in cache
            assert space.block_id("warehouse", warehouse, 0) in cache

    def test_stats_reset_after_fill(self):
        space = space_for()
        cache = BufferCache(100)
        steady_state_fill(cache, space)
        assert cache.hits == 0 and cache.misses == 0


    def test_refuses_a_non_empty_cache(self):
        cache = BufferCache(100)
        cache.install(1)
        with pytest.raises(ValueError):
            steady_state_fill(cache, space_for())


def install_loop_fill(cache, space, profiles):
    """The fill as one ``install`` per unit: the reference the bulk fill
    must reproduce, order and dirty bits included."""
    rng = Random(0x5EED)
    write_fractions = segment_write_fractions(profiles)
    selected = []
    budget = cache.capacity_units
    for unit in unit_popularities(space, profiles):
        if budget <= 0:
            break
        copies = min(space.warehouses if unit.per_warehouse else 1, budget)
        selected.append((unit.segment, unit.index, copies))
        budget -= copies
    for segment, index, copies in reversed(selected):
        dirty_prob = write_fractions.get(segment, 0.0)
        for warehouse in range(copies):
            cache.install(space.block_id(segment, warehouse, index),
                          dirty=rng.random() < dirty_prob)
    cache.reset_stats()
    return cache.resident_units


class TestBulkFillMatchesInstallLoop:
    @pytest.mark.parametrize("warehouses", [10, 800])
    @pytest.mark.parametrize("workload", [
        "odb-standard", "key-value", "order-entry-burst"])
    def test_same_contents_in_the_same_order(self, workload, warehouses):
        system = OdbSystem(OdbConfig(
            warehouses=warehouses, clients=4, processors=1,
            workload=compile_workload(workload_by_name(workload))))
        capacity = system.buffer_cache.capacity_units
        profiles = system.mix.profiles
        bulk, reference = BufferCache(capacity), BufferCache(capacity)
        installed = steady_state_fill(bulk, system.space, profiles)
        assert installed == install_loop_fill(reference, system.space,
                                              profiles)
        assert list(bulk.snapshot().items()) == list(
            reference.snapshot().items())
        assert (bulk.hits, bulk.misses) == (0, 0)


def dict_fill(cache, space, profiles):
    """The fill in Python, as it was before it moved into the kernel:
    the LRU-ordered contents built as a dict with ``Random(0x5EED)``
    dirty draws, handed over with one ``restore``."""
    write_fractions = segment_write_fractions(profiles)
    selected = []
    budget = cache.capacity_units
    for unit in unit_popularities(space, profiles):
        if budget <= 0:
            break
        copies = min(space.warehouses if unit.per_warehouse else 1, budget)
        selected.append((unit.segment, unit.index, copies))
        budget -= copies
    stride = space.units_per_warehouse
    random = Random(0x5EED).random
    state = {}
    for segment, index, copies in reversed(selected):
        dirty_prob = write_fractions.get(segment, 0.0)
        base = space.block_id(segment, 0, index)
        for warehouse in range(copies):
            state[base + warehouse * stride] = random() < dirty_prob
    restore(cache, state)
    return len(state)


class TestKernelFillMatchesDictFill:
    @pytest.mark.parametrize("warehouses", [1, 100, 800, 1200])
    @pytest.mark.parametrize("workload", [
        "odb-standard", "banking", "key-value", "order-entry-burst"])
    def test_same_order_and_dirty_bits(self, workload, warehouses):
        system = OdbSystem(OdbConfig(
            warehouses=warehouses, clients=4, processors=1,
            workload=compile_workload(workload_by_name(workload))))
        capacity = system.buffer_cache.capacity_units
        profiles = system.mix.profiles
        kernel, oracle = BufferCache(capacity), BufferCache(capacity)
        kernel.install(1)
        lookup(kernel, 2)
        restore(kernel, {})  # empty again, counters zeroed
        installed = steady_state_fill(kernel, system.space, profiles)
        assert installed == dict_fill(oracle, system.space, profiles)
        assert list(kernel.snapshot().items()) == list(
            oracle.snapshot().items())
        assert dirty_units(kernel) == dirty_units(oracle) > 0
        assert (kernel.hits, kernel.misses) == (0, 0)

    @pytest.mark.parametrize("capacity", [1, 7, 5000])
    def test_partial_tiers(self, capacity):
        space = space_for(warehouses=50)
        kernel, oracle = BufferCache(capacity), BufferCache(capacity)
        assert (steady_state_fill(kernel, space)
                == dict_fill(oracle, space, STANDARD_PROFILES) == capacity)
        assert list(kernel.snapshot().items()) == list(
            oracle.snapshot().items())

    def test_fill_rejects_what_does_not_fit(self):
        cache = BufferCache(10)
        with pytest.raises(ValueError, match="capacity"):
            cache.fill([(0, 6, 0.5), (100, 5, 0.5)], 1, Random(1))
        assert cache.resident_units == 0
        cache.fill([], 1, Random(1))
        assert cache.resident_units == 0
