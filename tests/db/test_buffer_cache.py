"""Tests for the SGA buffer cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer_cache import BufferCache

from tests.db.reference_lru import (
    contains,
    dirty_units,
    install,
    lookup,
    restore,
    snapshot,
    touch_write,
)


class TestBasics:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            BufferCache(0)

    def test_lookup_miss_then_install_then_hit(self):
        cache = BufferCache(4)
        assert not lookup(cache, 1)
        install(cache, 1)
        assert lookup(cache, 1)
        assert cache.hits == 1 and cache.misses == 1

    def test_contains(self):
        cache = BufferCache(4)
        install(cache, 5)
        assert contains(cache, 5)
        assert not contains(cache, 6)

    def test_touch_write_marks_dirty(self):
        cache = BufferCache(4)
        install(cache, 1)
        touch_write(cache, 1)
        assert dirty_units(cache) == 1

    def test_install_dirty(self):
        cache = BufferCache(4)
        install(cache, 1, dirty=True)
        assert dirty_units(cache) == 1

    def test_reinstall_preserves_dirty(self):
        cache = BufferCache(4)
        install(cache, 1, dirty=True)
        assert install(cache, 1, dirty=False) is None
        assert dirty_units(cache) == 1


class TestEviction:
    def test_lru_eviction_order(self):
        cache = BufferCache(2)
        install(cache, 1)
        install(cache, 2)
        victim = install(cache, 3)
        assert victim == (1, False)
        assert not contains(cache, 1)
        assert contains(cache, 2) and contains(cache, 3)

    def test_lookup_refreshes_recency(self):
        cache = BufferCache(2)
        install(cache, 1)
        install(cache, 2)
        lookup(cache, 1)
        victim = install(cache, 3)
        assert victim == (2, False)

    def test_dirty_victim_reported(self):
        cache = BufferCache(1)
        install(cache, 1, dirty=True)
        victim = install(cache, 2)
        assert victim == (1, True)
        assert cache.c.dirty_evictions == 1
        assert cache.c.clean_evictions == 0

    def test_clean_victim_counted(self):
        cache = BufferCache(1)
        install(cache, 1)
        install(cache, 2)
        assert cache.c.clean_evictions == 1


class TestWriterInterface:
    def test_clean_marks_block_clean(self):
        cache = BufferCache(4)
        install(cache, 1, dirty=True)
        assert cache.clean(1)
        assert dirty_units(cache) == 0

    def test_clean_absent_block(self):
        assert not BufferCache(4).clean(99)

    def test_clean_preserves_recency_order(self):
        cache = BufferCache(2)
        install(cache, 1, dirty=True)
        install(cache, 2)
        cache.clean(1)  # must NOT make 1 most-recent
        victim = install(cache, 3)
        assert victim == (1, False)

    def test_oldest_dirty_in_lru_order(self):
        cache = BufferCache(4)
        install(cache, 1, dirty=True)
        install(cache, 2, dirty=False)
        install(cache, 3, dirty=True)
        assert cache.oldest_dirty(10) == [1, 3]
        assert cache.oldest_dirty(1) == [1]


class TestStats:
    def test_hit_rate(self):
        cache = BufferCache(4)
        install(cache, 1)
        lookup(cache, 1)
        lookup(cache, 2)
        assert cache.hits / (cache.hits + cache.misses) == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        cache = BufferCache(4)
        install(cache, 1)
        lookup(cache, 1)
        cache.reset_stats()
        assert cache.hits == 0
        assert contains(cache, 1)

    def test_empty_hit_rate(self):
        assert BufferCache(4).hits == BufferCache(4).misses == 0


class TestSnapshotRestore:
    @staticmethod
    def used_cache() -> BufferCache:
        cache = BufferCache(3)
        for block_id in (1, 2, 3, 4):
            install(cache, block_id)  # evicts 1
        touch_write(cache, 3)
        lookup(cache, 2)
        lookup(cache, 9)
        return cache

    def test_restore_keeps_order_and_dirty_bits(self):
        state = snapshot(self.used_cache())
        assert list(state.items()) == [(4, False), (3, True), (2, False)]
        cache = BufferCache(3)
        restore(cache, state)
        assert list(snapshot(cache).items()) == list(state.items())
        assert cache.oldest_dirty(3) == [3]

    def test_restore_zeroes_counters(self):
        source = self.used_cache()
        assert source.hits and source.misses and source.c.clean_evictions
        cache = self.used_cache()
        restore(cache, snapshot(source))
        assert (cache.hits, cache.misses, cache.c.dirty_evictions,
                cache.c.clean_evictions) == (0, 0, 0, 0)

    def test_live_cache_does_not_alias_the_snapshot(self):
        source = self.used_cache()
        state = snapshot(source)
        expected = list(state.items())
        install(source, 7, dirty=True)
        cache = BufferCache(3)
        restore(cache, state)
        lookup(cache, 4)
        touch_write(cache, 2)
        install(cache, 8)
        cache.clean(3)
        assert list(state.items()) == expected

    def test_restore_rejects_oversized_state(self):
        with pytest.raises(ValueError):
            restore(BufferCache(2), snapshot(self.used_cache()))


class TestProperties:
    @given(st.integers(min_value=1, max_value=30),
           st.lists(st.tuples(st.integers(0, 100), st.booleans()),
                    min_size=1, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity(self, capacity, ops):
        cache = BufferCache(capacity)
        for block, write in ops:
            hit = touch_write(cache, block) if write else lookup(cache, block)
            if not hit:
                install(cache, block, dirty=write)
        assert cache.resident_units <= capacity

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_most_recent_block_always_resident(self, blocks):
        cache = BufferCache(3)
        for block in blocks:
            if not lookup(cache, block):
                install(cache, block)
            assert contains(cache, block)

    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_dirty_accounting_consistent(self, ops):
        cache = BufferCache(5)
        for block, write in ops:
            hit = touch_write(cache, block) if write else lookup(cache, block)
            if not hit:
                install(cache, block, dirty=write)
        assert 0 <= dirty_units(cache) <= cache.resident_units
