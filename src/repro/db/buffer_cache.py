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
    """

    def __init__(self, capacity_units: int):
        if capacity_units <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_units = capacity_units
        self._lru: dict[int, bool] = {}  # block -> dirty; dict order = LRU
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._lru

    @property
    def resident_units(self) -> int:
        """Units currently cached."""
        return len(self._lru)

    @property
    def dirty_units(self) -> int:
        """Cached units with unwritten modifications."""
        return sum(1 for dirty in self._lru.values() if dirty)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, block_id: int) -> bool:
        """Reference a block; True on hit (refreshes recency)."""
        dirty = self._lru.pop(block_id, None)
        if dirty is None:
            self.misses += 1
            return False
        self._lru[block_id] = dirty
        self.hits += 1
        return True

    def touch_write(self, block_id: int) -> bool:
        """Reference a block for update, marking it dirty; True on hit."""
        dirty = self._lru.pop(block_id, None)
        if dirty is None:
            self.misses += 1
            return False
        self._lru[block_id] = True
        self.hits += 1
        return True

    def install(self, block_id: int, dirty: bool = False) -> Optional[tuple[int, bool]]:
        """Insert a block after a disk read.

        Returns the evicted ``(block_id, was_dirty)`` or None.  Installing
        a block that is already resident just refreshes it.
        """
        if block_id in self._lru:
            was_dirty = self._lru.pop(block_id)
            self._lru[block_id] = was_dirty or dirty
            return None
        victim = None
        if len(self._lru) >= self.capacity_units:
            victim_id = next(iter(self._lru))
            victim_dirty = self._lru.pop(victim_id)
            victim = (victim_id, victim_dirty)
            if victim_dirty:
                self.dirty_evictions += 1
            else:
                self.clean_evictions += 1
        self._lru[block_id] = dirty
        return victim

    def clean(self, block_id: int) -> bool:
        """Mark a block clean (the database writer finished its write)."""
        if block_id in self._lru:
            # Preserve recency: rewrite the dirty bit in place.
            self._lru[block_id] = False
            return True
        return False

    def oldest_dirty(self, limit: int) -> list[int]:
        """Up to ``limit`` dirty blocks in LRU order (checkpoint targets)."""
        result = []
        for block_id, dirty in self._lru.items():
            if dirty:
                result.append(block_id)
                if len(result) >= limit:
                    break
        return result

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (cache contents are kept)."""
        self.hits = 0
        self.misses = 0
        self.dirty_evictions = 0
        self.clean_evictions = 0

    def snapshot(self) -> dict[int, bool]:
        """A copy of the contents: block -> dirty, in LRU order."""
        return dict(self._lru)

    def restore(self, state: dict[int, bool]) -> None:
        """Install a copy of a :meth:`snapshot` and zero the counters."""
        if len(state) > self.capacity_units:
            raise ValueError("snapshot exceeds the cache capacity")
        self._lru = dict(state)
        self.reset_stats()
