"""An obviously-correct LRU with dirty bits: the buffer cache's oracle.

``tests/db/test_buffer_cache_reference.py`` drives it beside
:class:`~repro.db.buffer_cache.BufferCache` operation by operation, and
``tests/odb/reference_prewarm.py`` replays the whole prewarm into it.
"""

from collections import OrderedDict


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
