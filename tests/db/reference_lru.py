"""An obviously-correct LRU with dirty bits: the buffer cache's oracle.

``tests/db/test_buffer_cache_reference.py`` drives it beside
:class:`~repro.db.buffer_cache.BufferCache` operation by operation, and
``tests/odb/reference_prewarm.py`` replays the whole prewarm into it.
:func:`lookup`, :func:`touch_write`, :func:`dirty_units` and
:func:`restore` drive one ``BufferCache`` at a time, through the kernel
calls the DES and the prewarm make in bulk.
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


def dirty_units(cache) -> int:
    """Cached units of a ``BufferCache`` with unwritten modifications."""
    return sum(cache.snapshot().values())


def restore(cache, state: dict) -> None:
    """Load a ``BufferCache.snapshot()`` into ``cache``, in its LRU order
    with its dirty bits, and zero the counters."""
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
