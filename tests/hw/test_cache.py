"""Tests for the set-associative cache model, one access at a time
through the kernel (``tests/hw/kernel_driver.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cache import SetAssociativeCache
from repro.hw.machine import CacheConfig

from tests.hw.kernel_driver import (
    access,
    flush,
    invalidate_line,
    line_of,
    resident_lines,
    sets,
    stats,
)


def make_cache(size=1024, line=64, ways=2):
    return SetAssociativeCache(CacheConfig("T", size, line, ways))


class TestGeometry:
    def test_line_and_set_counts(self):
        cache = make_cache(size=1024, line=64, ways=2)
        assert cache.config.total_lines == 16
        assert cache.config.num_sets == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 64, 2)  # not divisible
        with pytest.raises(ValueError):
            CacheConfig("bad", 1024, 60, 2)  # line not power of two
        with pytest.raises(ValueError):
            CacheConfig("bad", 0, 64, 2)


class TestBasicBehavior:
    def test_first_access_misses_second_hits(self):
        cache = make_cache()
        assert not access(cache, 0x100).hit
        assert access(cache, 0x100).hit

    def test_same_line_different_bytes_hit(self):
        cache = make_cache(line=64)
        access(cache, 0x100)
        assert access(cache, 0x13F).hit  # same 64B line
        assert not access(cache, 0x140).hit  # next line

    def test_lru_eviction_within_set(self):
        cache = make_cache(size=256, line=64, ways=2)  # 2 sets
        # Three lines mapping to set 0 (stride = num_sets * line = 128).
        a, b, c = 0x000, 0x080, 0x100
        access(cache, a)
        access(cache, b)
        result = access(cache, c)  # evicts a (LRU)
        assert result.evicted_line == line_of(cache, a)
        assert not access(cache, a).hit  # a was evicted; this refill evicts b
        assert access(cache, c).hit  # c stayed resident throughout

    def test_hit_refreshes_lru(self):
        cache = make_cache(size=256, line=64, ways=2)
        a, b, c = 0x000, 0x080, 0x100
        access(cache, a)
        access(cache, b)
        access(cache, a)  # refresh a; b becomes LRU
        result = access(cache, c)
        assert result.evicted_line == line_of(cache, b)

    def test_writeback_only_for_dirty_victims(self):
        cache = make_cache(size=256, line=64, ways=2)
        a, b, c, d = 0x000, 0x080, 0x100, 0x180
        access(cache, a, write=True)
        access(cache, b, write=False)
        result = access(cache, c)  # evicts dirty a
        assert result.writeback
        result = access(cache, d)  # evicts clean b
        assert not result.writeback
        assert stats(cache)["writebacks"] == 1

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=256, line=64, ways=2)
        a, b, c = 0x000, 0x080, 0x100
        access(cache, a, write=False)
        access(cache, a, write=True)  # dirty via hit
        access(cache, b)
        result = access(cache, c)  # evicts a
        assert result.writeback


class TestInvalidate:
    def test_invalidate_removes_line(self):
        cache = make_cache()
        access(cache, 0x100)
        assert invalidate_line(cache, line_of(cache, 0x100))
        assert not access(cache, 0x100).hit
        assert stats(cache)["invalidations"] == 1

    def test_invalidate_absent_line_is_noop(self):
        cache = make_cache()
        assert not invalidate_line(cache, line_of(cache, 0x500))
        assert stats(cache)["invalidations"] == 0

    def test_invalidate_line_by_id(self):
        cache = make_cache()
        access(cache, 0x100)
        assert invalidate_line(cache, 0x100 >> 6)
        assert sets(cache)[(0x100 >> 6) % cache.config.num_sets] == {}


class TestStats:
    def test_miss_rate(self):
        cache = make_cache()
        access(cache, 0x0)
        access(cache, 0x0)
        access(cache, 0x0)
        access(cache, 0x1000)
        counters = stats(cache)
        assert counters["misses"] / counters["accesses"] == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        cache = make_cache()
        access(cache, 0x100)
        cache._c.accesses = 0
        assert stats(cache)["accesses"] == 0
        assert access(cache, 0x100).hit  # contents survived

    def test_flush_empties(self):
        cache = make_cache()
        access(cache, 0x100)
        access(cache, 0x200)
        assert flush(cache) == 2
        assert resident_lines(cache) == 0
        assert not access(cache, 0x100).hit

    def test_miss_rate_zero_without_accesses(self):
        assert stats(make_cache())["misses"] == 0


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = make_cache(size=512, line=64, ways=2)
        for address in addresses:
            access(cache, address)
        assert resident_lines(cache) <= cache.config.total_lines
        for cache_set in sets(cache):
            assert len(cache_set) <= cache.config.associativity

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                    max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_counters_are_consistent(self, addresses):
        cache = make_cache(size=512, line=64, ways=2)
        for address in addresses:
            access(cache, address, write=address % 3 == 0)
        counters = stats(cache)
        assert (counters["hits"] + counters["misses"] == counters["accesses"]
                == len(addresses))
        assert (counters["writebacks"] <= counters["evictions"]
                <= counters["misses"])

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_repeat_of_recent_access_hits(self, addresses):
        # Immediately repeating any access must hit (LRU keeps the MRU line).
        cache = make_cache(size=512, line=64, ways=2)
        for address in addresses:
            access(cache, address)
            assert access(cache, address).hit

    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=50,
                    max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_bigger_cache_never_misses_more(self, ways, addresses):
        # LRU caches have the inclusion property: doubling capacity (same
        # line size, fully associative comparison) cannot increase misses.
        small = SetAssociativeCache(CacheConfig("s", 64 * 8, 64, 8))
        large = SetAssociativeCache(CacheConfig("l", 64 * 32, 64, 32))
        for address in addresses:
            access(small, address)
            access(large, address)
        assert stats(large)["misses"] <= stats(small)["misses"]
