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

from repro.hw.cwalk import ffi, lib


class BufferCache:
    """LRU cache of block units with dirty bits.

    The DES references blocks in the kernel (``lru_lookup`` on ``c``,
    read or write), and the compiled ``read_miss`` fills a block after
    its disk read with the kernel's ``lru_install`` on ``c``; both are
    called from the event kernel.

    The LRU is exact and lives in the walk kernel (``lru_t`` in
    ``repro/hw/_walk.c``; DESIGN.md §11, "Buffer-cache LRU"): a doubly
    linked recency list over slots and an open-addressing table from
    block id to slot, growing with the resident units, not with the
    capacity.  ``c`` is the kernel state; the DES's block references
    call ``lru_lookup`` on it directly.  Block ids are ``uint64``.
    """

    def __init__(self, capacity_units: int):
        if capacity_units <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_units = capacity_units
        state = lib.lru_new(capacity_units)
        if state == ffi.NULL:
            raise MemoryError("cannot allocate the buffer cache")
        self.c = ffi.gc(state, lib.lru_free)

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

    def replay(self, codes) -> None:
        """Reference every packed touch ``(block_id << 1) | write`` of
        the ``uint64_t[]`` ``codes`` in order, installing each miss
        (victims are dropped): the prewarm's plan replay, in one call."""
        if lib.lru_replay(self.c, codes, len(codes)) < 0:
            raise MemoryError("cannot grow the buffer cache")

    def fill(self, rows, stride: int, mt) -> None:
        """Fill the empty cache in one kernel call: each ``(base,
        copies, dirty_prob)`` of ``rows`` in order installs ``copies``
        units ``stride`` apart from ``base``, each dirty when its
        ``random()`` draw from the kernel stream ``mt`` falls below
        ``dirty_prob``.  The units must be distinct and fit; the
        counters end zeroed.
        """
        if self.c.used:
            raise ValueError("fill needs an empty cache")
        bases, copies, dirty_probs = zip(*rows) if rows else ((), (), ())
        if sum(copies) > self.capacity_units:
            raise ValueError("fill exceeds the cache capacity")
        if lib.lru_fill(self.c, mt, bases, copies, dirty_probs, len(bases),
                        stride) < 0:
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
