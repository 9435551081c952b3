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
    drives it from the kernel on every shared data reference, and
    attaches each CPU's L2 and L3 (:meth:`attach`), which a remote write
    then invalidates directly.  Lines are unsigned 64-bit.
    """

    invalidations = _counter("invalidations")
    interventions = _counter("interventions")
    coherence_misses = _counter("coherence_misses")

    def __init__(self, processors: int):
        if not 0 < processors <= MAX_PROCESSORS:
            raise ValueError(
                f"processors must be 1..{MAX_PROCESSORS}, got {processors}")
        self.processors = processors
        state = lib.dir_new(processors)
        if state == ffi.NULL:
            raise MemoryError("cannot allocate the coherence directory")
        self._c = ffi.gc(state, lib.dir_free)
        self._attached = {}

    def attach(self, cpu: int, l2, l3) -> None:
        """Let a remote write drop its line from ``cpu``'s L2 and L3
        (:class:`~repro.hw.cache.SetAssociativeCache`) in the kernel."""
        if not 0 <= cpu < self.processors:
            raise ValueError(f"cpu {cpu} out of range (P={self.processors})")
        self._attached[cpu] = (l2, l3)  # the kernel points into them
        self._c.l2[cpu] = l2._c
        self._c.l3[cpu] = l3._c


def _grown(result: int) -> int:
    """A directory call's result; -1 means its table could not grow."""
    if result < 0:
        raise MemoryError("cannot grow the coherence directory")
    return result
