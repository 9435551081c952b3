"""One-reference entry points into the compiled walk kernel, for tests.

The program reaches the kernel's caches, TLB, predictor and coherence
directory only through its walks (``walk_data``/``walk_fetch``/
``walk_branch`` and the trace run) and draws from its Mersenne Twister
only inside the kernel's samplers.  The tests check those parts one at
a time: these helpers call the same exported kernel functions on the
program's objects (:class:`~repro.hw.cache.SetAssociativeCache`,
:class:`~repro.hw.tlb.Tlb`, :class:`~repro.hw.branch.BimodalPredictor`,
:class:`~repro.hw.hierarchy.CpuHierarchy`,
:class:`~repro.hw.coherence.CoherenceDirectory`,
:class:`~repro.hw.sampling.Mersenne`) and read their state back as
Python containers, in the shapes the pure-Python oracles
(``reference_*.py``) keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.cwalk import ffi, lib
from repro.hw.sampling import check_bound, poisson_threshold

STATS = ("accesses", "hits", "misses", "evictions", "writebacks",
         "invalidations")


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    #: Line id evicted to make room, or None when a way was free or on hit.
    evicted_line: Optional[int] = None
    #: True when the evicted line was dirty (a writeback occurred).
    writeback: bool = False


# -- one cache level ----------------------------------------------------------

def line_of(cache, address: int) -> int:
    """Line id containing byte ``address``."""
    return address >> cache._c.line_shift


def access(cache, address: int, write: bool = False) -> AccessResult:
    """Reference a byte address; returns hit/miss and victim info."""
    victim = ffi.new("uint64_t *")
    result = lib.cache_access(cache._c, line_of(cache, address), write,
                              victim)
    if result & lib.ACCESS_HIT:
        return AccessResult(hit=True)
    if result & lib.ACCESS_EVICTED:
        return AccessResult(hit=False, evicted_line=victim[0],
                            writeback=bool(result & lib.ACCESS_WRITEBACK))
    return AccessResult(hit=False)


def invalidate_line(cache, line: int) -> bool:
    """Drop a line by line id; True if it was resident."""
    return bool(lib.cache_invalidate(cache._c, line))


def flush(cache) -> int:
    """Empty the cache; returns the lines it held."""
    return lib.cache_flush(cache._c)


def sets(cache) -> list[dict[int, bool]]:
    """A copy of every set as ``{line: dirty}`` in LRU order."""
    ways = cache.config.associativity
    tags = ffi.unpack(cache._tags, len(cache._tags))
    dirty = ffi.unpack(cache._dirty, len(cache._dirty))
    return [{tags[slot]: bool(dirty[slot])
             for slot in range(base, base + fill)}
            for base, fill in zip(range(0, len(tags), ways),
                                  ffi.unpack(cache._fill, len(cache._fill)))]


def resident_lines(cache) -> int:
    """Number of lines currently cached."""
    return sum(ffi.unpack(cache._fill, len(cache._fill)))


def stats(cache) -> dict[str, int]:
    """The cache's counters by name."""
    return {name: getattr(cache._c, name) for name in STATS}


def translate(tlb, address: int) -> bool:
    """Translate ``address`` through a TLB; True on a hit."""
    return access(tlb._cache, address).hit


# -- the branch predictor -----------------------------------------------------

def predict(predictor, pc: int, taken: bool) -> bool:
    """Predict the branch at ``pc``, train on the outcome; True if correct."""
    return bool(lib.predict(predictor._c, pc, taken))


def predictor_flush(predictor) -> None:
    """Reset every counter to weakly taken."""
    lib.predictor_flush(predictor._c)


def table(predictor) -> list[int]:
    """A copy of the counter states (0 strongly not taken .. 3)."""
    return ffi.unpack(predictor._states, predictor.table_size)


# -- one CPU's stack: one-reference walks -------------------------------------

def data_ref(hierarchy, address: int, write: bool, kernel: bool) -> None:
    """One private data reference on a :class:`CpuHierarchy`."""
    lib.walk_data(hierarchy._c, ffi.new("uint64_t[]", [
        (address << 2) | write << 1]), 1, kernel)


def fetch(hierarchy, address: int, kernel: bool) -> None:
    """One instruction fetch on a :class:`CpuHierarchy`."""
    lib.walk_fetch(hierarchy._c, ffi.new("uint64_t[]", [address]), 1, kernel)


def branch(hierarchy, pc: int, taken: bool, kernel: bool) -> None:
    """One conditional branch on a :class:`CpuHierarchy`."""
    lib.walk_branch(hierarchy._c, ffi.new("uint64_t[]", [pc << 1 | taken]),
                    1, kernel)


def context_switch(hierarchy) -> None:
    """An address-space switch, as the trace run makes it: the DTLB is
    flushed and the switch counted."""
    lib.cache_flush(hierarchy._c.dtlb)
    hierarchy._c.counts[2 * lib.EV_CONTEXT_SWITCHES] += 1


def invalidate_data_line(hierarchy, line: int) -> None:
    """Drop an L2/L3 line id from a CPU's L2 and L3."""
    invalidate_line(hierarchy.l2, line)
    invalidate_line(hierarchy.l3, line)


# -- the coherence directory --------------------------------------------------

def _grown(result: int) -> int:
    if result < 0:
        raise MemoryError("cannot grow the coherence directory")
    return result


def read(directory, cpu: int, line: int, was_miss: bool) -> bool:
    """A read by ``cpu``; True for a coherence miss."""
    return bool(_grown(lib.dir_read(directory._c, cpu, line, was_miss)))


def write(directory, cpu: int, line: int, was_miss: bool) -> bool:
    """A write by ``cpu``, invalidating the remote copies (in the attached
    caches too); True for a coherence miss."""
    return bool(_grown(lib.dir_write(directory._c, cpu, line, was_miss)) & 1)


def tables(directory) -> tuple[dict[int, int], dict[int, int], list[set[int]]]:
    """``({line: sharer mask}, {line: modified owner}, per-CPU stolen
    lines)`` over every held line, as the dict oracle keeps them."""
    table_c = directory._c.table
    entries = [table_c[index] for index in range(1 << directory._c.table_bits)
               if table_c[index].used]
    stolen = [{e.line for e in entries if e.stolen >> cpu & 1}
              for cpu in range(directory.processors)]
    return ({e.line: e.sharers for e in entries if e.sharers},
            {e.line: e.owner for e in entries if e.owner >= 0}, stolen)


def reference_tables(directory):
    """:func:`tables` of the dict oracle."""
    return directory._sharers, directory._modified, directory._stolen


# -- the Mersenne Twister -----------------------------------------------------

def random(mt) -> float:
    """``Random.random()`` from a :class:`Mersenne`."""
    return lib.mt_random(mt.c)


def getrandbits(mt, k: int) -> int:
    """``Random.getrandbits(k)`` for ``0 <= k <= 32``."""
    if not 0 <= k <= 32:
        raise ValueError(f"getrandbits takes 0..32 bits here, got {k}")
    return lib.mt_getrandbits(mt.c, k)


def randbelow(mt, n: int) -> int:
    """``Random.randrange(n)`` for ``1 <= n < 2**32``."""
    check_bound("randrange bound", n)
    return lib.mt_randbelow(mt.c, n)


def poisson(mt, mean: float) -> int:
    """The kernel's small-mean Poisson count (Knuth's method)."""
    return lib.mt_poisson(mt.c, poisson_threshold(mean))
