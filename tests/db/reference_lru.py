"""An obviously-correct LRU with dirty bits: the buffer cache's oracle.

``tests/db/test_buffer_cache_reference.py`` drives it beside
:class:`~repro.db.buffer_cache.BufferCache` operation by operation, and
``tests/odb/reference_prewarm.py`` replays the whole prewarm into it.
:func:`lookup`, :func:`touch_write`, :func:`install`, :func:`contains`,
:func:`snapshot`, :func:`dirty_units` and :func:`restore` drive or read
one ``BufferCache`` at a time, through the kernel calls the DES and the
prewarm make in bulk; its eviction counters are ``cache.c``'s
``dirty_evictions`` and ``clean_evictions``.
"""

from collections import OrderedDict

from repro.hw.cwalk import ffi, lib


def lookup(cache, block: int) -> bool:
    """Reference a block of a ``BufferCache`` for reading; True on a hit."""
    return lib.lru_lookup(cache.c, block, 0)


def touch_write(cache, block: int) -> bool:
    """Reference a block of a ``BufferCache`` for update, marking it
    dirty; True on a hit."""
    return lib.lru_lookup(cache.c, block, 1)


def install(cache, block: int, dirty: bool = False):
    """Insert a block into a ``BufferCache`` as the fill after a disk
    read does (the kernel's ``lru_install``): the evicted ``(block_id,
    was_dirty)``, or None.  Installing a resident block refreshes it."""
    victim = ffi.new("uint64_t *")
    result = lib.lru_install(cache.c, block, dirty, victim)
    if result < 0:
        raise MemoryError("cannot grow the buffer cache")
    if result == 0:
        return None
    return victim[0], bool(result & lib.LRU_DIRTY)


def contains(cache, block: int) -> bool:
    """True when ``block`` is resident in a ``BufferCache`` (no recency
    change)."""
    return lib.lru_contains(cache.c, block)


def snapshot(cache) -> dict:
    """A copy of a ``BufferCache``'s contents: block -> dirty, in LRU
    order."""
    count = cache.c.used
    ids = ffi.new("uint64_t[]", count)
    dirty = ffi.new("_Bool[]", count)
    lib.lru_snapshot(cache.c, ids, dirty)
    return dict(zip(ffi.unpack(ids, count), ffi.unpack(dirty, count)))


def dirty_units(cache) -> int:
    """Cached units of a ``BufferCache`` with unwritten modifications."""
    return sum(snapshot(cache).values())


def restore(cache, state: dict) -> None:
    """Load a :func:`snapshot` into ``cache``, in its LRU order with its
    dirty bits, and zero the counters."""
    if len(state) > cache.capacity_units:
        raise ValueError("snapshot exceeds the cache capacity")
    if lib.lru_load(cache.c, ffi.new("uint64_t[]", list(state)),
                    ffi.new("_Bool[]", list(state.values())), len(state)) < 0:
        raise MemoryError("cannot grow the buffer cache")


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
