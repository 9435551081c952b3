"""Write-invalidate coherence directory across per-CPU cache hierarchies.

The Xeon MP system has private L2/L3 per processor kept coherent by
snooping on the shared bus.  This module models the protocol outcome (who
gets invalidated, which misses are coherence misses) without modeling the
snoop timing — Section 5.2's finding is precisely that coherence traffic
is *not* a major CPI factor on this system, and the reproduction checks
that the counted coherence misses stay a small share of all L3 misses.

Classification: a miss by CPU *i* on line *x* is a **coherence miss** when
*i* previously held *x* and lost it to another CPU's write (it would have
hit in an infinite cache without invalidations).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.hw.cwalk import ffi, lib

#: CPUs one directory can track: a line's sharers are a 32-bit mask.
MAX_PROCESSORS = 32


def _counter(name: str) -> property:
    def get(self) -> int:
        return getattr(self._c, name)

    def set(self, value: int) -> None:
        setattr(self._c, name, value)

    return property(get, set, doc=f"Count of {name} so far (settable).")


class CoherenceDirectory:
    """Tracks sharers and modified ownership per cache line.

    The directory lives in the compiled walk kernel (``dir_t`` in
    ``repro/hw/_walk.c``; DESIGN.md §11): an open-addressing table from
    line to its sharer mask, its modified owner and the mask of CPUs it
    was stolen from.  The :class:`~repro.hw.hierarchy.SmpHierarchy`
    drives it from the kernel on every shared data access, and attaches
    each CPU's L2 and L3 (:meth:`attach`), which a remote write then
    invalidates directly.  ``invalidate_hook(cpu, line)``, if given, is
    called for every remote copy a :meth:`note_write` drops, in CPU
    order, after the directory has changed.  Lines are unsigned 64-bit.
    """

    invalidations = _counter("invalidations")
    interventions = _counter("interventions")
    coherence_misses = _counter("coherence_misses")

    def __init__(self, processors: int,
                 invalidate_hook: Optional[Callable[[int, int], None]] = None):
        if not 0 < processors <= MAX_PROCESSORS:
            raise ValueError(
                f"processors must be 1..{MAX_PROCESSORS}, got {processors}")
        self.processors = processors
        self.invalidate_hook = invalidate_hook
        state = lib.dir_new(processors)
        if state == ffi.NULL:
            raise MemoryError("cannot allocate the coherence directory")
        self._c = ffi.gc(state, lib.dir_free)
        self._attached = {}

    def attach(self, cpu: int, l2, l3) -> None:
        """Let a remote write drop its line from ``cpu``'s L2 and L3
        (:class:`~repro.hw.cache.SetAssociativeCache`) in the kernel."""
        self._check_cpu(cpu)
        self._attached[cpu] = (l2, l3)  # the kernel points into them
        self._c.l2[cpu] = l2._c
        self._c.l3[cpu] = l3._c

    def note_read(self, cpu: int, line: int, was_miss: bool) -> bool:
        """Record a read by ``cpu``; returns True for a coherence miss.

        A read of a line another CPU holds modified triggers an
        intervention (cache-to-cache supply) and demotes the owner.
        """
        self._check_cpu(cpu)
        return bool(_grown(lib.dir_read(self._c, cpu, line, was_miss)))

    def note_write(self, cpu: int, line: int, was_miss: bool) -> bool:
        """Record a write by ``cpu``; invalidates all remote copies."""
        self._check_cpu(cpu)
        result = _grown(lib.dir_write(self._c, cpu, line, was_miss))
        remote = result >> 1
        if remote and self.invalidate_hook is not None:
            for other in range(self.processors):
                if remote >> other & 1:
                    self.invalidate_hook(other, line)
        return bool(result & 1)

    def note_eviction(self, cpu: int, line: int) -> None:
        """A line silently left ``cpu``'s hierarchy (capacity eviction).

        A capacity eviction is not a theft: a later miss on this line is
        not classified as a coherence miss.
        """
        self._check_cpu(cpu)
        lib.dir_evict(self._c, cpu, line)

    def sharer_count(self, line: int) -> int:
        """Number of CPUs currently holding ``line``."""
        return bin(lib.dir_sharers(self._c, line)).count("1")

    # -- the table as Python containers (for inspection and tests) ----------

    def _lines(self):
        table = self._c.table
        for index in range(1 << self._c.table_bits):
            entry = table[index]
            if entry.used:
                yield entry

    @property
    def _sharers(self) -> dict[int, int]:
        """``{line: sharer mask}`` of every held line."""
        return {e.line: e.sharers for e in self._lines() if e.sharers}

    @property
    def _modified(self) -> dict[int, int]:
        """``{line: owner}`` of every line held modified."""
        return {e.line: e.owner for e in self._lines() if e.owner >= 0}

    @property
    def _stolen(self) -> list[set[int]]:
        """Per CPU, the lines it lost to a remote write."""
        stolen = [set() for _ in range(self.processors)]
        for entry in self._lines():
            for cpu in range(self.processors):
                if entry.stolen >> cpu & 1:
                    stolen[cpu].add(entry.line)
        return stolen

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.processors:
            raise ValueError(f"cpu {cpu} out of range (P={self.processors})")


def _grown(result: int) -> int:
    """A directory call's result; -1 means its table could not grow."""
    if result < 0:
        raise MemoryError("cannot grow the coherence directory")
    return result
