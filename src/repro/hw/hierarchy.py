"""Per-CPU cache stacks and the SMP assembly.

Each CPU has a private trace cache (code), unified L2 and L3 (inclusive),
a data TLB, and a branch predictor — mirroring the Xeon MP's private
per-package hierarchy.  The :class:`SmpHierarchy` wires ``P`` of these to
one :class:`~repro.hw.coherence.CoherenceDirectory` and splits every event
count into user and kernel buckets, which is what the paper's
user/OS-space figures (5, 6, 10, 11, 14, 15) need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.hw.branch import BimodalPredictor
from repro.hw.cache import SetAssociativeCache
from repro.hw.coherence import CoherenceDirectory, _grown
from repro.hw.cwalk import ffi, lib
from repro.hw.machine import CacheConfig, MachineConfig
from repro.hw.tlb import Tlb

#: The Table 2 split counts, in the kernel's ``EV_*`` order.
_EVENTS = ("data_refs", "code_refs", "branches", "mispredicts", "tlb_misses",
           "tc_misses", "l2_misses", "l3_misses", "l3_writebacks",
           "coherence_misses")
#: ``hier_t.counts``: a user and a kernel slot per event, then the
#: context switches.
_CONTEXT_SWITCHES = 2 * lib.EV_CONTEXT_SWITCHES
_COUNT_SLOTS = _CONTEXT_SWITCHES + 1


def scaled_cache_config(config: CacheConfig, scale: int) -> CacheConfig:
    """Shrink a cache by ``scale`` while keeping line size and ways.

    The microarchitecture simulation runs a thinned reference stream, so
    the caches are shrunk by the same resolution factor (DESIGN.md §6).
    The result always keeps at least one full set.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    lines_per_set = config.associativity
    target_lines = max(lines_per_set, config.total_lines // scale)
    # Round down to a whole number of sets.
    target_lines -= target_lines % lines_per_set
    return replace(config, size_bytes=target_lines * config.line_bytes)


@dataclass
class SplitCount:
    """An event count split into user and kernel parts."""

    user: int = 0
    kernel: int = 0

    @property
    def total(self) -> int:
        """User + OS total."""
        return self.user + self.kernel


@dataclass
class HierarchyCounts:
    """All Table 2 event counts produced by a hierarchy run."""

    data_refs: SplitCount = field(default_factory=SplitCount)
    code_refs: SplitCount = field(default_factory=SplitCount)
    branches: SplitCount = field(default_factory=SplitCount)
    mispredicts: SplitCount = field(default_factory=SplitCount)
    tlb_misses: SplitCount = field(default_factory=SplitCount)
    tc_misses: SplitCount = field(default_factory=SplitCount)
    l2_misses: SplitCount = field(default_factory=SplitCount)
    l3_misses: SplitCount = field(default_factory=SplitCount)
    l3_writebacks: SplitCount = field(default_factory=SplitCount)
    coherence_misses: SplitCount = field(default_factory=SplitCount)
    context_switches: int = 0

    def as_counter_dict(self) -> dict[str, float]:
        """Flat totals for observability spans (:mod:`repro.obs`).

        One entry per Table 2 count (user+kernel summed), computed once
        when a phase span closes — the cache/TLB walk hot paths above
        are never touched by tracing.
        """
        flat: dict[str, float] = {}
        for name in _EVENTS:
            split: SplitCount = getattr(self, name)
            flat[name] = float(split.total)
        flat["context_switches"] = float(self.context_switches)
        return flat


def _counts_from(slots: list) -> HierarchyCounts:
    """A :class:`HierarchyCounts` from ``hier_t.counts`` values."""
    return HierarchyCounts(
        **{name: SplitCount(slots[2 * index], slots[2 * index + 1])
           for index, name in enumerate(_EVENTS)},
        context_switches=slots[_CONTEXT_SWITCHES])


def _codes(run):
    """A run as kernel input: a cdata run as is, a list copied in."""
    return run if isinstance(run, ffi.CData) else ffi.new("uint64_t[]", run)


class CpuHierarchy:
    """One CPU's private TC / L2 / L3 / DTLB / branch predictor.

    The caches and the predictor keep their state in the compiled walk
    kernel, and so do the Table 2 counts: :attr:`counts` builds a
    :class:`HierarchyCounts` from them on every read.
    """

    def __init__(self, machine: MachineConfig, cpu: int, scale: int = 1):
        self.cpu = cpu
        self.machine = machine
        self.tc = SetAssociativeCache(scaled_cache_config(machine.tc, scale))
        self.l2 = SetAssociativeCache(scaled_cache_config(machine.l2, scale))
        self.l3 = SetAssociativeCache(scaled_cache_config(machine.l3, scale))
        self.dtlb = Tlb(machine.dtlb)
        self.predictor = BimodalPredictor()
        if self.l2.config.line_bytes != self.l3.config.line_bytes:
            raise ValueError("L2 and L3 must share a line size")
        self._c = ffi.new("hier_t *", {
            "dtlb": self.dtlb._cache._c, "tc": self.tc._c, "l2": self.l2._c,
            "l3": self.l3._c, "predictor": self.predictor._c})

    @property
    def counts(self) -> HierarchyCounts:
        """The Table 2 counts so far (a copy)."""
        return _counts_from(ffi.unpack(self._c.counts, _COUNT_SLOTS))

    def reset_counts(self) -> None:
        """Zero the Table 2 counts (cache contents are kept)."""
        self._c.counts = [0] * _COUNT_SLOTS


class SmpHierarchy:
    """``P`` private hierarchies kept coherent by one directory.

    With more than one CPU, every CPU's kernel state points at the
    directory (``hier_t.dir``), so a shared data reference goes through
    it inside the walk, and the directory invalidates the other CPUs'
    L2 and L3 copies itself.  Addresses are unsigned, and a packed run
    entry must fit 64 bits: a negative or oversized one raises
    :class:`OverflowError` before any state changes.
    """

    def __init__(self, machine: MachineConfig, processors: int, scale: int = 1):
        if not 1 <= processors <= machine.max_processors:
            raise ValueError(
                f"processors must be 1..{machine.max_processors}, got {processors}")
        self.machine = machine
        self.processors = processors
        self.cpus = [CpuHierarchy(machine, cpu, scale) for cpu in range(processors)]
        self.directory = CoherenceDirectory(processors)
        self._states = [hierarchy._c for hierarchy in self.cpus]
        if processors > 1:
            for hierarchy in self.cpus:
                self.directory.attach(hierarchy.cpu, hierarchy.l2,
                                      hierarchy.l3)
                hierarchy._c.dir = self.directory._c
                hierarchy._c.cpu = hierarchy.cpu
                hierarchy._directory = self.directory  # the kernel points into it

    # -- reference walks ----------------------------------------------------
    #
    # One call walks a whole run of references in the compiled kernel,
    # and a run leaves exactly the state and counts of walking its
    # references one at a time (DESIGN.md §11).  ``kernel`` is constant
    # per run.  A run is a list of ints or a ``uint64_t[]`` cdata, which
    # is walked in place.  The trace generator's transaction loop walks
    # its segments inside the kernel, not through these: no program path
    # calls them, and they stay because the perf ledger's walk probe
    # (benchmarks/perf/walkprobe.py) wraps them by name.

    def data_access(self, cpu: int, address: int, write: bool, kernel: bool,
                    shared: bool = False) -> None:
        """A data reference on ``cpu`` (a one-reference walk); ``shared``
        lines engage coherence."""
        _grown(lib.walk_data(self._states[cpu], ffi.new(
            "uint64_t[]", [(address << 2) | write << 1 | shared]), 1, kernel))

    def access_run(self, cpu: int, run, kernel: bool) -> None:
        """Walk packed data references ``(address << 2) | write << 1 |
        shared`` on ``cpu`` in one pass."""
        _grown(lib.walk_data(self._states[cpu], _codes(run), len(run),
                             kernel))

    def fetch_run(self, cpu: int, run, kernel: bool) -> None:
        """Walk a run of instruction-fetch byte addresses in one pass."""
        lib.walk_fetch(self._states[cpu], _codes(run), len(run), kernel)

    def branch_run(self, cpu: int, run, kernel: bool) -> None:
        """Walk packed branches ``(site << 1) | taken`` in one pass."""
        lib.walk_branch(self._states[cpu], _codes(run), len(run), kernel)

    def merged_counts(self) -> HierarchyCounts:
        """Sum of all CPUs' event counts."""
        return _counts_from([sum(column) for column in zip(
            *(ffi.unpack(state.counts, _COUNT_SLOTS) for state in self._states))])
