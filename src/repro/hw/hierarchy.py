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
from repro.hw.coherence import CoherenceDirectory
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

    def add(self, kernel: bool, amount: int = 1) -> None:
        """Accumulate into the user or OS bucket."""
        if kernel:
            self.kernel += amount
        else:
            self.user += amount


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

    def data_access(self, address: int, write: bool, kernel: bool) -> tuple[bool, bool]:
        """One data reference; returns ``(l2_missed, l3_missed)``."""
        result = lib.hier_data(self._c, address, write, kernel)
        return bool(result & lib.L2_MISSED), bool(result & lib.L3_MISSED)

    def fetch(self, address: int, kernel: bool) -> bool:
        """One instruction-fetch reference; returns True on a TC miss.

        A TC miss is filled from L2/L3, so code misses contribute to the
        unified cache traffic as on the real machine.
        """
        return bool(lib.hier_fetch(self._c, address, kernel))

    def branch(self, pc: int, taken: bool, kernel: bool) -> bool:
        """One conditional branch; returns True when predicted correctly."""
        return bool(lib.hier_branch(self._c, pc, taken, kernel))

    def context_switch(self) -> None:
        """Address-space switch: the DTLB is flushed."""
        self.dtlb.flush()
        self._c.counts[_CONTEXT_SWITCHES] += 1

    def invalidate_data_line(self, line: int) -> None:
        """Coherence invalidation of a (L2/L3-sized) line id."""
        self.l2.invalidate_line(line)
        self.l3.invalidate_line(line)


class SmpHierarchy:
    """``P`` private hierarchies kept coherent by one directory.

    Addresses are unsigned, and a packed run entry must fit 64 bits:
    a negative or oversized one raises :class:`OverflowError` before
    any state changes.
    """

    def __init__(self, machine: MachineConfig, processors: int, scale: int = 1):
        if not 1 <= processors <= machine.max_processors:
            raise ValueError(
                f"processors must be 1..{machine.max_processors}, got {processors}")
        self.machine = machine
        self.processors = processors
        self.cpus = [CpuHierarchy(machine, cpu, scale) for cpu in range(processors)]
        self.directory = CoherenceDirectory(processors, self._invalidate)
        self._line_shift = self.cpus[0].l3.config.line_bytes.bit_length() - 1
        self._states = [hierarchy._c for hierarchy in self.cpus]

    def _invalidate(self, cpu: int, line: int) -> None:
        self.cpus[cpu].invalidate_data_line(line)

    def data_access(self, cpu: int, address: int, write: bool, kernel: bool,
                    shared: bool = False) -> None:
        """A data reference on ``cpu``; ``shared`` lines engage coherence."""
        l3_missed = self.cpus[cpu].data_access(address, write, kernel)[1]
        if shared and self.processors > 1:
            self._replay(cpu, [(address << 2) | (2 if write else 0) | l3_missed],
                         1, kernel)

    def fetch(self, cpu: int, address: int, kernel: bool) -> None:
        """An instruction fetch on ``cpu`` (code is read-shared: no coherence)."""
        self.cpus[cpu].fetch(address, kernel)

    def branch(self, cpu: int, pc: int, taken: bool, kernel: bool) -> None:
        """Run one branch through the predictor, counting the outcome."""
        self.cpus[cpu].branch(pc, taken, kernel)

    # -- batched reference walks --------------------------------------------
    #
    # The trace generator's fast path (DESIGN.md §11): one call walks a
    # whole run of references in the compiled kernel, through the same
    # probes as the single-reference methods above, so a run leaves
    # exactly the state and counts of issuing its references one at a
    # time.  ``kernel`` is constant per run: the generator batches at
    # segment granularity (a user segment or a kernel burst).  A run is
    # a list of ints or a ``uint64_t[]`` cdata, such as a slice of the
    # generator's buffer, which is walked in place.

    def access_run(self, cpu: int, run, kernel: bool) -> None:
        """Walk packed data references ``(address << 2) | write << 1 |
        shared`` on ``cpu`` in one pass (a cdata run is overwritten)."""
        codes = _codes(run)
        shared = lib.walk_data(self._states[cpu], codes, len(run), kernel,
                               self.processors > 1)
        if shared:
            self._replay(cpu, codes, shared, kernel)

    def fetch_run(self, cpu: int, run, kernel: bool) -> None:
        """Walk a run of instruction-fetch byte addresses in one pass."""
        lib.walk_fetch(self._states[cpu], _codes(run), len(run), kernel)

    def branch_run(self, cpu: int, run, kernel: bool) -> None:
        """Walk packed branches ``(site << 1) | taken`` in one pass."""
        lib.walk_branch(self._states[cpu], _codes(run), len(run), kernel)

    def _replay(self, cpu: int, codes, count: int, kernel: bool) -> None:
        """Drive the directory with ``cpu``'s shared data references.

        ``codes[:count]`` are ``(address << 2) | write << 1 | l3_missed``,
        in walk order.  Replaying them after the walk is exact: the
        directory only invalidates *other* CPUs' lines, so nothing it
        does can change this CPU's walk.
        """
        note_read = self.directory.note_read
        note_write = self.directory.note_write
        shift = self._line_shift + 2
        misses = 0
        for index in range(count):
            code = codes[index]
            if code & 2:
                misses += note_write(cpu, code >> shift, code & 1)
            else:
                misses += note_read(cpu, code >> shift, code & 1)
        if misses:
            self._states[cpu].counts[
                2 * lib.EV_COHERENCE_MISSES + bool(kernel)] += misses

    def context_switch(self, cpu: int) -> None:
        """Apply context-switch perturbation to TLBs and caches."""
        self.cpus[cpu].context_switch()

    def merged_counts(self) -> HierarchyCounts:
        """Sum of all CPUs' event counts."""
        return _counts_from([sum(column) for column in zip(
            *(ffi.unpack(state.counts, _COUNT_SLOTS) for state in self._states))])
