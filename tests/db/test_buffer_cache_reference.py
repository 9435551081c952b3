"""Differential test: BufferCache against a brute-force LRU reference."""

from collections import OrderedDict
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer_cache import BufferCache


class ReferenceLru:
    """An obviously-correct LRU with dirty bits."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: "OrderedDict[int, bool]" = OrderedDict()

    def lookup(self, block: int, write: bool) -> bool:
        if block in self.entries:
            dirty = self.entries.pop(block)
            self.entries[block] = dirty or write
            return True
        return False

    def install(self, block: int, dirty: bool):
        victim = None
        if block not in self.entries and len(self.entries) >= self.capacity:
            victim = self.entries.popitem(last=False)
        if block in self.entries:
            previous = self.entries.pop(block)
            self.entries[block] = previous or dirty
        else:
            self.entries[block] = dirty
        return victim


operations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60), st.booleans()),
    min_size=1, max_size=600)


@given(st.integers(min_value=1, max_value=20), operations)
@settings(max_examples=80, deadline=None)
def test_buffer_cache_matches_reference(capacity, ops):
    cache = BufferCache(capacity)
    reference = ReferenceLru(capacity)
    for block, write in ops:
        hit = cache.touch_write(block) if write else cache.lookup(block)
        ref_hit = reference.lookup(block, write)
        assert hit == ref_hit, f"hit mismatch on block {block}"
        if not hit:
            victim = cache.install(block, dirty=write)
            ref_victim = reference.install(block, write)
            assert victim == ref_victim, f"victim mismatch on block {block}"
    # Final state identical: same residents, same dirty bits, same order.
    assert list(cache.snapshot().items()) == list(reference.entries.items())


@given(st.integers(min_value=1, max_value=10), operations)
@settings(max_examples=60, deadline=None)
def test_clean_never_disturbs_order(capacity, ops):
    cache = BufferCache(capacity)
    reference = ReferenceLru(capacity)
    for index, (block, write) in enumerate(ops):
        hit = cache.touch_write(block) if write else cache.lookup(block)
        reference.lookup(block, write)
        if not hit:
            cache.install(block, dirty=write)
            reference.install(block, write)
        if index % 7 == 0:
            # Periodically clean the oldest dirty block in both models.
            dirty = cache.oldest_dirty(1)
            if dirty:
                cache.clean(dirty[0])
                reference.entries[dirty[0]] = False
    assert list(cache.snapshot()) == list(reference.entries)


def drive_miss_heavy(capacity: int, seed: int, length: int) -> int:
    """Replay a random miss-heavy sequence against both models.

    Reads and writes draw from three times the capacity, interleaved
    with ``clean``, ``oldest_dirty``, ``snapshot`` and ``restore``.
    Returns the number of generation swaps the cache made.
    """
    rng = Random(seed)
    cache = BufferCache(capacity)
    reference = ReferenceLru(capacity)
    swaps = 0
    order = cache._order
    for _ in range(length):
        kind = rng.randrange(20)
        block = rng.randrange(3 * capacity)
        if kind < 16:
            write = kind >= 8
            hit = cache.touch_write(block) if write else cache.lookup(block)
            assert hit == reference.lookup(block, write)
            if not hit:
                victim = cache.install(block, dirty=write)
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
            assert list(cache.snapshot().items()) == list(
                reference.entries.items())
        else:
            cache.restore(cache.snapshot())
        if cache._order is not order:
            order = cache._order
            swaps += 1
    assert list(cache.snapshot().items()) == list(reference.entries.items())
    assert cache.resident_units == len(reference.entries)
    assert cache.dirty_units == sum(reference.entries.values())
    return swaps


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_miss_heavy_sequences_match_reference(capacity, seed, length):
    drive_miss_heavy(capacity, seed, length)


def test_generation_swaps_happen_mid_sequence():
    assert drive_miss_heavy(50, 1, 5000) >= 3


class CountedBlock(int):
    """A block id that counts how often a dict hashes it."""

    hashes = 0

    def __hash__(self):
        CountedBlock.hashes += 1
        return int.__hash__(self)


def test_eviction_cursor_is_amortised_constant():
    """Over N evictions the victim cursor advances at most N plus the
    number of hits that took a block out of the old generation, and the
    evictions look at no more keys than that: none rescans entries that
    have already left the old generation."""
    capacity = 45_875
    cache = BufferCache(capacity)
    cache.restore({CountedBlock(block): block % 3 == 0
                   for block in range(capacity)})
    rng = Random(7)
    evictions = old_hits = advance = swaps = 0
    installs = install_hashes = 0
    order, cursor = cache._order, cache._cursor
    for _ in range(150_000):
        block = CountedBlock(rng.randrange(2 * capacity))
        old_hits += block in cache._old
        write = rng.random() < 0.3
        hit = cache.touch_write(block) if write else cache.lookup(block)
        if not hit:
            before = CountedBlock.hashes
            evictions += cache.install(block, dirty=write) is not None
            install_hashes += CountedBlock.hashes - before
            installs += 1
        if cache._order is not order:
            order, cursor = cache._order, 0
            swaps += 1
        advance += cache._cursor - cursor
        cursor = cache._cursor
    assert swaps >= 2  # several generations went by
    assert advance <= evictions + old_hits
    # An install hashes its block at most four times (two pops, the
    # insert, the victim's pop); everything else is the victim search.
    assert install_hashes - 4 * installs <= evictions + old_hits
