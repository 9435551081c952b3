"""A set-associative, write-back, LRU cache model.

The model is line-granular and demand-filled: every access either hits a
resident line (refreshing its recency) or misses, installs the line, and
possibly evicts the least-recently-used line of the set (reporting a
writeback when the victim was dirty).  The state lives in the compiled
walk kernel (:mod:`repro.hw.cwalk`): each set is ``ways`` slots of line
id and dirty bit, kept in LRU order, least recent first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.cwalk import ffi, lib
from repro.hw.machine import CacheConfig


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    #: Line id evicted to make room, or None when a way was free or on hit.
    evicted_line: Optional[int] = None
    #: True when the evicted line was dirty (a writeback occurred).
    writeback: bool = False


# Shared immutable results for the two allocation-free outcomes.
_HIT = AccessResult(hit=True)
_MISS_NO_VICTIM = AccessResult(hit=False)

_STATS = ("accesses", "hits", "misses", "evictions", "writebacks",
          "invalidations")


def _stat(name: str) -> property:
    return property(lambda self: getattr(self._c, name),
                    doc=f"Count of {name} since the last reset_stats().")


class SetAssociativeCache:
    """One cache level.

    Addresses are byte addresses; the cache works internally on line ids
    (``address // line_bytes``).  Addresses and line ids are unsigned:
    a negative one raises :class:`OverflowError`.
    """

    accesses = _stat("accesses")
    hits = _stat("hits")
    misses = _stat("misses")
    evictions = _stat("evictions")
    writebacks = _stat("writebacks")
    invalidations = _stat("invalidations")

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_shift = config.line_bytes.bit_length() - 1
        slots = config.num_sets * config.associativity
        # The arrays are owned here; the struct only points at them.
        self._tags = ffi.new("uint64_t[]", slots)
        self._dirty = ffi.new("uint8_t[]", slots)
        self._fill = ffi.new("uint32_t[]", config.num_sets)
        self._c = ffi.new("cache_t *", {
            "tags": self._tags, "dirty": self._dirty, "fill": self._fill,
            "num_sets": config.num_sets, "ways": config.associativity,
            "line_shift": self._line_shift})
        self._victim = ffi.new("uint64_t *")

    def line_of(self, address: int) -> int:
        """Line id containing byte ``address``."""
        return address >> self._line_shift

    # -- operations ----------------------------------------------------------

    def access(self, address: int, write: bool = False) -> AccessResult:
        """Reference a byte address; returns hit/miss and victim info."""
        result = lib.cache_access(self._c, address >> self._line_shift,
                                  write, self._victim)
        if result & lib.ACCESS_HIT:
            return _HIT
        if result & lib.ACCESS_EVICTED:
            return AccessResult(hit=False, evicted_line=self._victim[0],
                                writeback=bool(result & lib.ACCESS_WRITEBACK))
        return _MISS_NO_VICTIM

    def access_hit(self, address: int, write: bool = False) -> bool:
        """Like :meth:`access` but returns only the hit/miss outcome."""
        return bool(lib.cache_access(self._c, address >> self._line_shift,
                                     write, self._victim) & lib.ACCESS_HIT)

    def contains(self, address: int) -> bool:
        """True when the line holding ``address`` is resident (no LRU touch)."""
        return bool(lib.cache_contains(self._c, address >> self._line_shift))

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` (coherence); True if present."""
        return self.invalidate_line(address >> self._line_shift)

    def invalidate_line(self, line: int) -> bool:
        """Drop a line by line id (coherence fast path)."""
        return bool(lib.cache_invalidate(self._c, line))

    def flush(self) -> int:
        """Empty the cache (e.g. at simulation phase boundaries)."""
        return lib.cache_flush(self._c)

    # -- statistics -----------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return lib.cache_resident(self._c)

    @property
    def _sets(self) -> list[dict[int, bool]]:
        """A copy of every set as ``{line: dirty}`` in LRU order."""
        ways = self.config.associativity
        tags = ffi.unpack(self._tags, len(self._tags))
        dirty = ffi.unpack(self._dirty, len(self._dirty))
        return [{tags[slot]: bool(dirty[slot])
                 for slot in range(base, base + fill)}
                for base, fill in zip(range(0, len(tags), ways),
                                      ffi.unpack(self._fill, len(self._fill)))]

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero the counters without disturbing cache contents (warm-up)."""
        for name in _STATS:
            setattr(self._c, name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (f"<Cache {cfg.name} {cfg.size_bytes // 1024}KB "
                f"{cfg.associativity}-way miss_rate={self.miss_rate:.3f}>")
