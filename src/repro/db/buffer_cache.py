"""The SGA database buffer cache.

A single LRU over block units with dirty tracking.  Misses are what turn
into physical disk reads; dirty evictions are what the database writer
must flush (the second kind of write traffic in Section 4.3).

The cache is intentionally simple — Oracle's touch-count LRU, multiple
buffer pools, and CR clones all collapse to "keep the most recently and
frequently used blocks in memory" at the fidelity this study needs (the
paper's own description, Section 3.1).
"""

from __future__ import annotations

from typing import Optional


class BufferCache:
    """LRU cache of block units with dirty bits.

    ``lookup`` is the read path (returns a hit flag without installing),
    ``install`` the fill path after a disk read, ``touch_write`` the
    update path (marks dirty).  Evictions return the victim so the engine
    can hand dirty ones to the database writer.

    The LRU is exact and kept in two generations (DESIGN.md §11,
    "Buffer-cache LRU").  ``_new`` holds, in recency order, every block
    installed or hit since the last swap; ``_old`` is the generation
    before it and never receives inserts, so every ``_old`` entry is
    older than every ``_new`` entry and the LRU order is ``_old``'s
    remaining entries followed by ``_new``.  Eviction walks a cursor
    over ``_order``, the key list of ``_old`` taken at the swap,
    skipping keys that have left it: each key is passed at most once per
    generation, so eviction is amortised O(1).  (Taking the first key of
    one dict instead walks every deleted slot at the dict's front.)
    """

    def __init__(self, capacity_units: int):
        if capacity_units <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_units = capacity_units
        self._new: dict[int, bool] = {}  # block -> dirty; dict order = LRU
        self._old: dict[int, bool] = {}  # previous generation, never grows
        self._order: list[int] = []      # keys of _old at the swap
        self._cursor = 0                 # next candidate victim in _order
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._new or block_id in self._old

    @property
    def resident_units(self) -> int:
        """Units currently cached."""
        return len(self._new) + len(self._old)

    @property
    def dirty_units(self) -> int:
        """Cached units with unwritten modifications."""
        return (sum(1 for dirty in self._old.values() if dirty)
                + sum(1 for dirty in self._new.values() if dirty))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, block_id: int) -> bool:
        """Reference a block; True on hit (refreshes recency)."""
        new = self._new
        dirty = new.pop(block_id, None)
        if dirty is None:
            dirty = self._old.pop(block_id, None)
            if dirty is None:
                self.misses += 1
                return False
        new[block_id] = dirty
        self.hits += 1
        return True

    def touch_write(self, block_id: int) -> bool:
        """Reference a block for update, marking it dirty; True on hit."""
        new = self._new
        if (new.pop(block_id, None) is None
                and self._old.pop(block_id, None) is None):
            self.misses += 1
            return False
        new[block_id] = True
        self.hits += 1
        return True

    def install(self, block_id: int, dirty: bool = False) -> Optional[tuple[int, bool]]:
        """Insert a block after a disk read.

        Returns the evicted ``(block_id, was_dirty)`` or None.  Installing
        a block that is already resident just refreshes it.
        """
        new = self._new
        was_dirty = new.pop(block_id, None)
        if was_dirty is None:
            was_dirty = self._old.pop(block_id, None)
        if was_dirty is not None:
            new[block_id] = was_dirty or dirty
            return None
        victim = None
        old = self._old
        if len(new) + len(old) >= self.capacity_units:
            if not old:
                old = self._old = new
                new = self._new = {}
                self._order = list(old)
                self._cursor = 0
            order = self._order
            cursor = self._cursor
            while order[cursor] not in old:
                cursor += 1
            victim_id = order[cursor]
            self._cursor = cursor + 1
            victim_dirty = old.pop(victim_id)
            victim = (victim_id, victim_dirty)
            if victim_dirty:
                self.dirty_evictions += 1
            else:
                self.clean_evictions += 1
        new[block_id] = dirty
        return victim

    def clean(self, block_id: int) -> bool:
        """Mark a block clean (the database writer finished its write)."""
        # Preserve recency: rewrite the dirty bit in place.
        for generation in (self._new, self._old):
            if block_id in generation:
                generation[block_id] = False
                return True
        return False

    def oldest_dirty(self, limit: int) -> list[int]:
        """Up to ``limit`` dirty blocks in LRU order (checkpoint targets)."""
        result = []
        for generation in (self._old, self._new):
            for block_id, dirty in generation.items():
                if dirty:
                    result.append(block_id)
                    if len(result) >= limit:
                        return result
        return result

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (cache contents are kept)."""
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0

    def snapshot(self) -> dict[int, bool]:
        """A copy of the contents: block -> dirty, in LRU order."""
        return {**self._old, **self._new}

    def restore(self, state: dict[int, bool]) -> None:
        """Install a copy of a :meth:`snapshot` and zero the counters."""
        if len(state) > self.capacity_units:
            raise ValueError("snapshot exceeds the cache capacity")
        self._new = dict(state)
        self._old = {}
        self._order = []
        self._cursor = 0
        self.reset_stats()
