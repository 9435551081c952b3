"""Differential test: BufferCache against a brute-force LRU reference."""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer_cache import BufferCache

from tests.db.reference_lru import (
    ReferenceLru,
    dirty_units,
    install,
    lookup,
    restore,
    snapshot,
    touch_write,
)


operations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60), st.booleans()),
    min_size=1, max_size=600)


@given(st.integers(min_value=1, max_value=20), operations)
@settings(max_examples=80, deadline=None)
def test_buffer_cache_matches_reference(capacity, ops):
    cache = BufferCache(capacity)
    reference = ReferenceLru(capacity)
    for block, write in ops:
        hit = touch_write(cache, block) if write else lookup(cache, block)
        ref_hit = reference.lookup(block, write)
        assert hit == ref_hit, f"hit mismatch on block {block}"
        if not hit:
            victim = install(cache, block, dirty=write)
            ref_victim = reference.install(block, write)
            assert victim == ref_victim, f"victim mismatch on block {block}"
    # Final state identical: same residents, same dirty bits, same order.
    assert list(snapshot(cache).items()) == list(reference.entries.items())


@given(st.integers(min_value=1, max_value=10), operations)
@settings(max_examples=60, deadline=None)
def test_clean_never_disturbs_order(capacity, ops):
    cache = BufferCache(capacity)
    reference = ReferenceLru(capacity)
    for index, (block, write) in enumerate(ops):
        hit = touch_write(cache, block) if write else lookup(cache, block)
        reference.lookup(block, write)
        if not hit:
            install(cache, block, dirty=write)
            reference.install(block, write)
        if index % 7 == 0:
            # Periodically clean the oldest dirty block in both models.
            dirty = cache.oldest_dirty(1)
            if dirty:
                cache.clean(dirty[0])
                reference.entries[dirty[0]] = False
    assert list(snapshot(cache)) == list(reference.entries)


def drive_miss_heavy(capacity: int, seed: int, length: int,
                     span: int = 0, kinds: int = 20) -> None:
    """Replay a random miss-heavy sequence against both models.

    Reads and writes draw from ``span`` block ids (three times the
    capacity by default), interleaved with ``clean``, ``oldest_dirty``,
    ``snapshot`` and ``restore``, each one ``kinds``-th of the
    operations (a larger ``kinds`` adds reads and writes).
    """
    rng = Random(seed)
    span = span or 3 * capacity
    cache = BufferCache(capacity)
    reference = ReferenceLru(capacity)
    for _ in range(length):
        kind = rng.randrange(kinds)
        if kind >= 20:
            kind %= 16
        block = rng.randrange(span)
        if kind < 16:
            write = kind >= 8
            hit = touch_write(cache, block) if write else lookup(cache, block)
            assert hit == reference.lookup(block, write)
            if not hit:
                victim = install(cache, block, dirty=write)
                assert victim == reference.install(block, write)
        elif kind == 16:
            assert cache.clean(block) == (block in reference.entries)
            if block in reference.entries:
                reference.entries[block] = False
        elif kind == 17:
            limit = rng.randrange(1, capacity + 1)
            dirty = [b for b, d in reference.entries.items() if d][:limit]
            assert cache.oldest_dirty(limit) == dirty
        elif kind == 18:
            assert list(snapshot(cache).items()) == list(
                reference.entries.items())
        else:
            restore(cache, snapshot(cache))
    assert list(snapshot(cache).items()) == list(reference.entries.items())
    assert cache.resident_units == len(reference.entries)
    assert dirty_units(cache) == sum(reference.entries.values())


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_miss_heavy_sequences_match_reference(capacity, seed, length):
    drive_miss_heavy(capacity, seed, length)


def test_long_miss_heavy_run_over_wide_ids_matches_reference():
    """120 000 operations on a 4 096-unit cache over ids up to 2**40:
    the table grows, wraps its probe runs, and shifts entries back on
    every eviction, all under the oracle's eye.  One operation in 500
    reads or replaces the whole state."""
    drive_miss_heavy(4096, 11, 120_000, span=2**40, kinds=2000)


def test_long_run_over_colliding_ids_matches_reference():
    """Ids a multiple of 2**40 apart share their low bits, so only the
    hash's high bits tell them apart: long probe runs and back-shifts."""
    rng = Random(5)
    cache = BufferCache(4096)
    reference = ReferenceLru(4096)
    for _ in range(100_000):
        block = rng.randrange(3 * 4096) << 40
        write = rng.random() < 0.3
        hit = touch_write(cache, block) if write else lookup(cache, block)
        assert hit == reference.lookup(block, write)
        if not hit:
            assert (install(cache, block, dirty=write)
                    == reference.install(block, write))
    assert list(snapshot(cache).items()) == list(reference.entries.items())


def test_copy_and_restore_from_match_the_snapshot():
    cache = BufferCache(4096)
    rng = Random(3)
    for _ in range(20_000):
        block = rng.randrange(2**40)
        if not touch_write(cache, block):
            install(cache, block, dirty=rng.random() < 0.5)
    copy = cache.copy()
    assert list(snapshot(copy).items()) == list(snapshot(cache).items())
    assert (copy.hits, copy.misses, copy.c.dirty_evictions,
            copy.c.clean_evictions) == (0, 0, 0, 0)
    # A bigger cache takes the copy too (its table is rebuilt), and the
    # copy stays independent of both.
    bigger = BufferCache(10_000)
    for block in range(8000):
        install(bigger, block)
    bigger.restore_from(copy)
    expected = list(snapshot(copy).items())
    install(bigger, 2**41, dirty=True)
    install(cache, 2**41 + 1)
    assert list(snapshot(copy).items()) == expected
    assert list(snapshot(bigger).items()) == expected + [(2**41, True)]
