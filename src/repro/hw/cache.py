"""A set-associative, write-back, LRU cache model.

The model is line-granular and demand-filled: every access either hits a
resident line (refreshing its recency) or misses, installs the line, and
possibly evicts the least-recently-used line of the set (reporting a
writeback when the victim was dirty).  The state and the counters live
in the compiled walk kernel (:mod:`repro.hw.cwalk`): each set is
``ways`` slots of line id and dirty bit, kept in LRU order, least recent
first.  The kernel's walks are the only way references reach it.
"""

from __future__ import annotations

from repro.hw.cwalk import ffi
from repro.hw.machine import CacheConfig


class SetAssociativeCache:
    """One cache level: the kernel's ``cache_t`` and the arrays it uses.

    Addresses are byte addresses; the cache works internally on line ids
    (``address // line_bytes``).  ``_c`` holds the counters (accesses,
    hits, misses, evictions, writebacks, invalidations).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        slots = config.num_sets * config.associativity
        # The arrays are owned here; the struct only points at them.
        self._tags = ffi.new("uint64_t[]", slots)
        self._dirty = ffi.new("uint8_t[]", slots)
        self._fill = ffi.new("uint32_t[]", config.num_sets)
        self._c = ffi.new("cache_t *", {
            "tags": self._tags, "dirty": self._dirty, "fill": self._fill,
            "num_sets": config.num_sets, "ways": config.associativity,
            "line_shift": config.line_bytes.bit_length() - 1})
