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

from repro.hw.cwalk import ffi, lib
from repro.hw.sampling import Mersenne


class BufferCache:
    """LRU cache of block units with dirty bits.

    The DES references blocks in the kernel (``lib.lru_lookup`` on
    ``c``, read or write); ``install`` is the fill path after a disk
    read, and returns the victim so the engine can hand a dirty one to
    the database writer.

    The LRU is exact and lives in the walk kernel (``lru_t`` in
    ``repro/hw/_walk.c``; DESIGN.md §11, "Buffer-cache LRU"): a doubly
    linked recency list over slots and an open-addressing table from
    block id to slot, growing with the resident units, not with the
    capacity.  ``c`` is the kernel state; the DES's block references
    call ``lib.lru_lookup`` on it directly.  Block ids are ``uint64``.
    """

    def __init__(self, capacity_units: int):
        if capacity_units <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_units = capacity_units
        state = lib.lru_new(capacity_units)
        if state == ffi.NULL:
            raise MemoryError("cannot allocate the buffer cache")
        self.c = ffi.gc(state, lib.lru_free)
        self._victim = ffi.new("uint64_t *")

    def __contains__(self, block_id: int) -> bool:
        return lib.lru_contains(self.c, block_id)

    @property
    def resident_units(self) -> int:
        """Units currently cached."""
        return self.c.used

    @property
    def hits(self) -> int:
        """References that found their block resident."""
        return self.c.hits

    @property
    def misses(self) -> int:
        """References that did not."""
        return self.c.misses

    @property
    def dirty_evictions(self) -> int:
        """Evicted units that were dirty."""
        return self.c.dirty_evictions

    @property
    def clean_evictions(self) -> int:
        """Evicted units that were clean."""
        return self.c.clean_evictions

    def install(self, block_id: int, dirty: bool = False) -> Optional[tuple[int, bool]]:
        """Insert a block after a disk read.

        Returns the evicted ``(block_id, was_dirty)`` or None.  Installing
        a block that is already resident just refreshes it.
        """
        result = lib.lru_install(self.c, block_id, dirty, self._victim)
        if result <= 0:
            if result < 0:
                raise MemoryError("cannot grow the buffer cache")
            return None
        return self._victim[0], bool(result & lib.LRU_DIRTY)

    def replay(self, codes) -> None:
        """Reference every packed touch ``(block_id << 1) | write`` of
        the ``uint64_t[]`` ``codes`` in order, installing each miss
        (victims are dropped): the prewarm's plan replay, in one call."""
        if lib.lru_replay(self.c, codes, len(codes)) < 0:
            raise MemoryError("cannot grow the buffer cache")

    def fill(self, rows, stride: int, rng) -> None:
        """Fill the empty cache in one kernel call: each ``(base,
        copies, dirty_prob)`` of ``rows`` in order installs ``copies``
        units ``stride`` apart from ``base``, each dirty when its
        ``rng.random()`` draw falls below ``dirty_prob``; the draws come
        from ``rng``'s stream through the kernel's Mersenne Twister.
        The units must be distinct and fit; the counters end zeroed.
        """
        if self.c.used:
            raise ValueError("fill needs an empty cache")
        bases, copies, dirty_probs = zip(*rows) if rows else ((), (), ())
        if sum(copies) > self.capacity_units:
            raise ValueError("fill exceeds the cache capacity")
        with Mersenne().borrowed(rng) as mt:
            if lib.lru_fill(self.c, mt.c, bases, copies, dirty_probs,
                            len(bases), stride) < 0:
                raise MemoryError("cannot grow the buffer cache")

    def clean(self, block_id: int) -> bool:
        """Mark a block clean (the database writer finished its write)."""
        return lib.lru_clean(self.c, block_id)

    def oldest_dirty(self, limit: int) -> list[int]:
        """Up to ``limit`` dirty blocks in LRU order (checkpoint targets)."""
        limit = max(0, min(limit, self.c.used))
        out = ffi.new("uint64_t[]", limit)
        return ffi.unpack(out, lib.lru_oldest_dirty(self.c, limit, out))

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (cache contents are kept)."""
        c = self.c
        c.hits = c.misses = c.dirty_evictions = c.clean_evictions = 0

    def snapshot(self) -> dict[int, bool]:
        """A copy of the contents: block -> dirty, in LRU order."""
        count = self.c.used
        ids = ffi.new("uint64_t[]", count)
        dirty = ffi.new("_Bool[]", count)
        lib.lru_snapshot(self.c, ids, dirty)
        return dict(zip(ffi.unpack(ids, count), ffi.unpack(dirty, count)))

    def copy(self) -> "BufferCache":
        """A cache of the same capacity holding a copy of the contents,
        counters zeroed; :meth:`restore_from` installs it again."""
        duplicate = BufferCache(self.capacity_units)
        duplicate.restore_from(self)
        return duplicate

    def restore_from(self, source: "BufferCache") -> None:
        """Make the contents a copy of ``source``'s, in the same order
        with the same dirty bits, and zero the counters (a ``memcpy``
        of the kernel state)."""
        if source.resident_units > self.capacity_units:
            raise ValueError("source exceeds the cache capacity")
        if lib.lru_copy(self.c, source.c) < 0:
            raise MemoryError("cannot grow the buffer cache")
