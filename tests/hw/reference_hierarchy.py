"""The pure-Python cache walk, kept as the oracle for the compiled one.

This is the hardware model as it was before the walk moved into C
(``repro/hw/_walk.c``), unchanged but for the class names: one dict per
set whose insertion order is the LRU order, the per-reference
``data_access``/``fetch``/``branch`` bodies, and the hand-inlined
``access_run``/``fetch_run``/``branch_run`` loops with the dict-based
directory of ``reference_coherence.py`` driven inside the walk.  ``test_walk_kernel.py`` replays the same
streams through both and compares every observable.
"""

from __future__ import annotations

from repro.hw.cache import AccessResult
from repro.hw.hierarchy import HierarchyCounts, scaled_cache_config
from repro.hw.machine import CacheConfig, MachineConfig, TlbConfig

from tests.hw.reference_coherence import ReferenceDirectory


# Shared immutable results for the two allocation-free outcomes.  A
# cache access happens millions of times per configuration run, and a
# frozen-dataclass construction per access dominated the model's cost;
# only a miss that actually evicts needs a fresh object.
_HIT = AccessResult(hit=True)
_MISS_NO_VICTIM = AccessResult(hit=False)


class ReferenceCache:
    """One cache level.

    Addresses are byte addresses; the cache works internally on line ids
    (``address // line_bytes``).  Statistics counters are plain attributes
    so the EMON layer can snapshot them cheaply.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._num_sets = config.num_sets
        self._ways = config.associativity
        self._line_shift = config.line_bytes.bit_length() - 1
        # One dict per set: {line_id: dirty}; dict order is LRU order.
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self._num_sets)]
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations = 0

    # -- address helpers ----------------------------------------------------

    def line_of(self, address: int) -> int:
        """Line id containing byte ``address``."""
        return address >> self._line_shift

    def _set_of(self, line: int) -> dict[int, bool]:
        return self._sets[line % self._num_sets]

    # -- operations ----------------------------------------------------------

    def access(self, address: int, write: bool = False) -> AccessResult:
        """Reference a byte address; returns hit/miss and victim info."""
        line = address >> self._line_shift
        cache_set = self._sets[line % self._num_sets]
        self.accesses += 1
        dirty = cache_set.pop(line, None)
        if dirty is not None:
            self.hits += 1
            cache_set[line] = dirty or write
            return _HIT
        self.misses += 1
        if len(cache_set) >= self._ways:
            evicted_line = next(iter(cache_set))
            writeback = cache_set.pop(evicted_line)
            self.evictions += 1
            if writeback:
                self.writebacks += 1
            cache_set[line] = write
            return AccessResult(hit=False, evicted_line=evicted_line,
                                writeback=writeback)
        cache_set[line] = write
        return _MISS_NO_VICTIM

    def access_hit(self, address: int, write: bool = False) -> bool:
        """Like :meth:`access` but returns only the hit/miss outcome.

        State evolution and counters are identical to :meth:`access`;
        the victim information is simply not materialized.  This is the
        hot path for levels whose eviction victims the caller ignores
        (TLB translations, trace-cache fills, the L2 in front of an
        inclusive L3).
        """
        line = address >> self._line_shift
        cache_set = self._sets[line % self._num_sets]
        self.accesses += 1
        dirty = cache_set.pop(line, None)
        if dirty is not None:
            self.hits += 1
            cache_set[line] = dirty or write
            return True
        self.misses += 1
        if len(cache_set) >= self._ways:
            evicted_line = next(iter(cache_set))
            if cache_set.pop(evicted_line):
                self.writebacks += 1
            self.evictions += 1
        cache_set[line] = write
        return False

    def contains(self, address: int) -> bool:
        """True when the line holding ``address`` is resident (no LRU touch)."""
        line = address >> self._line_shift
        return line in self._sets[line % self._num_sets]

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address`` (coherence); True if present."""
        line = address >> self._line_shift
        cache_set = self._sets[line % self._num_sets]
        if line in cache_set:
            del cache_set[line]
            self.invalidations += 1
            return True
        return False

    def invalidate_line(self, line: int) -> bool:
        """Drop a line by line id (coherence fast path)."""
        cache_set = self._sets[line % self._num_sets]
        if line in cache_set:
            del cache_set[line]
            self.invalidations += 1
            return True
        return False

    def flush(self) -> int:
        """Empty the cache (e.g. at simulation phase boundaries)."""
        resident = sum(len(s) for s in self._sets)
        for cache_set in self._sets:
            cache_set.clear()
        return resident

    # -- statistics -----------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(s) for s in self._sets)

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero the counters without disturbing cache contents (warm-up)."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.invalidations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (f"<Cache {cfg.name} {cfg.size_bytes // 1024}KB "
                f"{cfg.associativity}-way miss_rate={self.miss_rate:.3f}>")


class ReferenceTlb:
    """Data TLB: translates byte addresses at page granularity.

    Internally reuses :class:`ReferenceCache` with one "line" per
    page.  A fully associative TLB is the single-set special case
    (``entries == associativity``), which is how the Xeon MP's DTLB is
    configured.
    """

    def __init__(self, config: TlbConfig):
        self.config = config
        cache_config = CacheConfig(
            name="TLB",
            size_bytes=config.entries * config.page_bytes,
            line_bytes=config.page_bytes,
            associativity=config.associativity,
        )
        self._cache = ReferenceCache(cache_config)

    def access(self, address: int) -> bool:
        """Translate ``address``; returns True on TLB hit."""
        return self._cache.access_hit(address)

    def flush(self) -> int:
        """Full TLB flush (address-space switch); returns entries dropped."""
        return self._cache.flush()

    @property
    def accesses(self) -> int:
        """Translations attempted so far."""
        return self._cache.accesses

    @property
    def misses(self) -> int:
        """Translations that missed the TLB."""
        return self._cache.misses

    @property
    def miss_rate(self) -> float:
        """misses / accesses (0 before any access)."""
        return self._cache.miss_rate

    def reset_stats(self) -> None:
        """Zero the access/miss counters (entries are kept)."""
        self._cache.reset_stats()


# 2-bit saturating counter states.
_STRONG_NOT_TAKEN, _WEAK_NOT_TAKEN, _WEAK_TAKEN, _STRONG_TAKEN = range(4)


class ReferencePredictor:
    """A table of 2-bit saturating counters indexed by PC."""

    def __init__(self, table_size: int = 4096):
        if table_size <= 0:
            raise ValueError("predictor table size must be positive")
        self.table_size = table_size
        self._table = [_WEAK_TAKEN] * table_size
        self.predictions = 0
        self.mispredictions = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict branch at ``pc``, train on the outcome; True if correct."""
        index = pc % self.table_size
        state = self._table[index]
        predicted_taken = state >= _WEAK_TAKEN
        correct = predicted_taken == taken
        self.predictions += 1
        if not correct:
            self.mispredictions += 1
        if taken:
            if state < _STRONG_TAKEN:
                self._table[index] = state + 1
        else:
            if state > _STRONG_NOT_TAKEN:
                self._table[index] = state - 1
        return correct

    def flush(self) -> None:
        """Reset all counters to weakly taken (context-switch state loss)."""
        self._table = [_WEAK_TAKEN] * self.table_size

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions / predictions (0 when never used)."""
        if not self.predictions:
            return 0.0
        return self.mispredictions / self.predictions

    def reset_stats(self) -> None:
        """Zero the prediction counters (tables are kept)."""
        self.predictions = 0
        self.mispredictions = 0


class ReferenceCpu:
    """One CPU's private TC / L2 / L3 / DTLB / branch predictor."""

    def __init__(self, machine: MachineConfig, cpu: int, scale: int = 1):
        self.cpu = cpu
        self.machine = machine
        self.tc = ReferenceCache(scaled_cache_config(machine.tc, scale))
        self.l2 = ReferenceCache(scaled_cache_config(machine.l2, scale))
        self.l3 = ReferenceCache(scaled_cache_config(machine.l3, scale))
        self.dtlb = ReferenceTlb(machine.dtlb)
        self.predictor = ReferencePredictor()
        self.counts = HierarchyCounts()
        if self.l2.config.line_bytes != self.l3.config.line_bytes:
            raise ValueError("L2 and L3 must share a line size")
        # Bound-method aliases for the per-reference fast path.  The
        # underlying cache objects are never replaced after construction
        # (flush/invalidate mutate them in place), so the aliases stay
        # valid for the hierarchy's lifetime.
        self._dtlb_hit = self.dtlb._cache.access_hit
        self._l2_hit = self.l2.access_hit
        self._l3_access = self.l3.access
        self._l2_invalidate = self.l2.invalidate_line
        self._tc_hit = self.tc.access_hit

    # The three per-reference entry points below increment SplitCount
    # buckets inline instead of via SplitCount.add(): together they run
    # several million times per configuration, and the method-call
    # overhead was a measurable share of the trace simulation.

    def data_access(self, address: int, write: bool, kernel: bool) -> tuple[bool, bool]:
        """One data reference; returns ``(l2_missed, l3_missed)``."""
        counts = self.counts
        refs = counts.data_refs
        if kernel:
            refs.kernel += 1
        else:
            refs.user += 1
        if not self._dtlb_hit(address):
            misses = counts.tlb_misses
            if kernel:
                misses.kernel += 1
            else:
                misses.user += 1
        if self._l2_hit(address, write):
            return False, False
        misses = counts.l2_misses
        if kernel:
            misses.kernel += 1
        else:
            misses.user += 1
        l3_result = self._l3_access(address, write)
        if l3_result.hit:
            return True, False
        misses = counts.l3_misses
        if kernel:
            misses.kernel += 1
        else:
            misses.user += 1
        if l3_result.writeback:
            counts.l3_writebacks.add(kernel)
        if l3_result.evicted_line is not None:
            # Inclusive hierarchy: an L3 eviction drops the L2 copy too.
            self._l2_invalidate(l3_result.evicted_line)
        return True, True

    def fetch(self, address: int, kernel: bool) -> bool:
        """One instruction-fetch reference; returns True on a TC miss.

        A TC miss is filled from L2/L3, so code misses contribute to the
        unified cache traffic as on the real machine.
        """
        counts = self.counts
        refs = counts.code_refs
        if kernel:
            refs.kernel += 1
        else:
            refs.user += 1
        if self._tc_hit(address):
            return False
        counts.tc_misses.add(kernel)
        if not self._l2_hit(address):
            counts.l2_misses.add(kernel)
            l3_result = self._l3_access(address)
            if not l3_result.hit:
                counts.l3_misses.add(kernel)
                if l3_result.writeback:
                    counts.l3_writebacks.add(kernel)
                if l3_result.evicted_line is not None:
                    self._l2_invalidate(l3_result.evicted_line)
        return True

    def branch(self, pc: int, taken: bool, kernel: bool) -> bool:
        """One conditional branch; returns True when predicted correctly."""
        counts = self.counts
        refs = counts.branches
        if kernel:
            refs.kernel += 1
        else:
            refs.user += 1
        correct = self.predictor.predict_and_update(pc, taken)
        if not correct:
            counts.mispredicts.add(kernel)
        return correct

    def context_switch(self) -> None:
        """Address-space switch: the DTLB is flushed."""
        self.dtlb.flush()
        self.counts.context_switches += 1

    def invalidate_data_line(self, line: int) -> None:
        """Coherence invalidation of a (L2/L3-sized) line id."""
        self.l2.invalidate_line(line)
        self.l3.invalidate_line(line)


class ReferenceSmp:
    """``P`` private hierarchies kept coherent by one directory."""

    def __init__(self, machine: MachineConfig, processors: int, scale: int = 1):
        if not 1 <= processors <= machine.max_processors:
            raise ValueError(
                f"processors must be 1..{machine.max_processors}, got {processors}")
        self.machine = machine
        self.processors = processors
        self.cpus = [ReferenceCpu(machine, cpu, scale) for cpu in range(processors)]
        self.directory = ReferenceDirectory(processors, self._invalidate)
        self._line_shift = self.cpus[0].l3.config.line_bytes.bit_length() - 1

    def _invalidate(self, cpu: int, line: int) -> None:
        self.cpus[cpu].invalidate_data_line(line)

    def data_access(self, cpu: int, address: int, write: bool, kernel: bool,
                    shared: bool = False) -> None:
        """A data reference on ``cpu``; ``shared`` lines engage coherence."""
        hierarchy = self.cpus[cpu]
        l2_miss, l3_miss = hierarchy.data_access(address, write, kernel)
        if not shared or self.processors == 1:
            return
        line = address >> self._line_shift
        if write:
            coherence_miss = self.directory.note_write(cpu, line, l3_miss)
        else:
            coherence_miss = self.directory.note_read(cpu, line, l3_miss)
        if coherence_miss:
            hierarchy.counts.coherence_misses.add(kernel)

    def fetch(self, cpu: int, address: int, kernel: bool) -> None:
        """An instruction fetch on ``cpu`` (code is read-shared: no coherence)."""
        self.cpus[cpu].fetch(address, kernel)

    def branch(self, cpu: int, pc: int, taken: bool, kernel: bool) -> None:
        """Run one branch through the predictor, counting the outcome."""
        self.cpus[cpu].branch(pc, taken, kernel)

    # -- batched reference walks --------------------------------------------
    #
    # The three *_run entry points below are the trace generator's fast
    # path (DESIGN.md §11): one call walks a whole precomputed run of
    # references through the hierarchy with the cache/TLB dict operations
    # inlined and every counter accumulated in locals, flushed once at
    # the end.  They are required to be *bit-identical* to issuing the
    # same references one at a time through data_access/fetch/branch —
    # same state evolution, same counter totals — which the hw test
    # suite checks by replaying identical streams through both paths.

    def access_run(self, cpu: int, run: list, kernel: bool) -> None:
        """Walk packed data references on ``cpu`` in one pass.

        Each entry packs one reference as ``(address << 2) | write << 1
        | shared`` — ``kernel`` is constant per run because the trace
        generator batches at segment granularity (a user segment or a
        kernel burst, never a mix).  Streaks of hits never leave the
        inlined probe loop; only misses descend into the L3/eviction/
        coherence slow path.
        """
        hierarchy = self.cpus[cpu]
        counts = hierarchy.counts
        tlb_cache = hierarchy.dtlb._cache
        tlb_sets = tlb_cache._sets
        tlb_shift = tlb_cache._line_shift
        tlb_nsets = tlb_cache._num_sets
        tlb_ways = tlb_cache._ways
        l2 = hierarchy.l2
        l2_sets = l2._sets
        l2_shift = l2._line_shift
        l2_nsets = l2._num_sets
        l2_ways = l2._ways
        l3 = hierarchy.l3
        l3_sets = l3._sets
        l3_nsets = l3._num_sets
        l3_ways = l3._ways
        multi = self.processors > 1
        directory = self.directory
        note_read = directory.note_read
        note_write = directory.note_write
        # Local accumulators: Table 2 split counts for this run...
        tlb_missed_refs = l2_missed_refs = l3_missed_refs = 0
        l3_writeback_refs = coherence_refs = 0
        # ...and the per-cache statistics attributes.
        t_hits = t_misses = t_evictions = 0
        l2_hits = l2_misses = l2_evictions = l2_writebacks = 0
        l2_invalidations = 0
        l3_accesses = l3_hits = l3_misses = l3_evictions = l3_writebacks = 0
        # Hit-streak short-circuits: a reference to the page/line the
        # previous reference touched is a guaranteed hit on an entry
        # that is already most-recent, so the pop/reinsert LRU dance is
        # the identity — skip it (a write may still need to set the
        # dirty bit; in-place assignment keeps the LRU position).  The
        # directory can only invalidate *other* CPUs' lines from this
        # run, so the streak line cannot vanish mid-run.
        last_page = -1
        last_line = -1
        for code in run:
            address = code >> 2
            # DTLB probe (page granularity; translations are never dirty).
            page = address >> tlb_shift
            if page == last_page:
                t_hits += 1
            else:
                last_page = page
                tlb_set = tlb_sets[page % tlb_nsets]
                if tlb_set.pop(page, None) is not None:
                    t_hits += 1
                    tlb_set[page] = False
                else:
                    t_misses += 1
                    tlb_missed_refs += 1
                    if len(tlb_set) >= tlb_ways:
                        del tlb_set[next(iter(tlb_set))]
                        t_evictions += 1
                    tlb_set[page] = False
            # L2 probe (L2 and L3 share a line size: one line id).
            write = code & 2
            line = address >> l2_shift
            if line == last_line:
                l2_hits += 1
                l3_missed = False
                if write:
                    l2_sets[line % l2_nsets][line] = True
            else:
                last_line = line
                l2_set = l2_sets[line % l2_nsets]
                dirty = l2_set.pop(line, None)
                if dirty is not None:
                    l2_hits += 1
                    l2_set[line] = dirty or write != 0
                    l3_missed = False
                else:
                    l2_misses += 1
                    l2_missed_refs += 1
                    if len(l2_set) >= l2_ways:
                        victim = next(iter(l2_set))
                        if l2_set.pop(victim):
                            l2_writebacks += 1
                        l2_evictions += 1
                    l2_set[line] = write != 0
                    # L3 access, with victim info for inclusion.
                    l3_accesses += 1
                    l3_set = l3_sets[line % l3_nsets]
                    dirty = l3_set.pop(line, None)
                    if dirty is not None:
                        l3_hits += 1
                        l3_set[line] = dirty or write != 0
                        l3_missed = False
                    else:
                        l3_misses += 1
                        l3_missed_refs += 1
                        l3_missed = True
                        if len(l3_set) >= l3_ways:
                            victim = next(iter(l3_set))
                            if l3_set.pop(victim):
                                l3_writebacks += 1
                                l3_writeback_refs += 1
                            l3_evictions += 1
                            # Inclusive hierarchy: drop the L2 copy too.
                            victim_set = l2_sets[victim % l2_nsets]
                            if victim in victim_set:
                                del victim_set[victim]
                                l2_invalidations += 1
                        l3_set[line] = write != 0
            if multi and code & 1:
                if write:
                    if note_write(cpu, line, l3_missed):
                        coherence_refs += 1
                elif note_read(cpu, line, l3_missed):
                    coherence_refs += 1
        refs = len(run)
        if kernel:
            counts.data_refs.kernel += refs
            counts.tlb_misses.kernel += tlb_missed_refs
            counts.l2_misses.kernel += l2_missed_refs
            counts.l3_misses.kernel += l3_missed_refs
            counts.l3_writebacks.kernel += l3_writeback_refs
            counts.coherence_misses.kernel += coherence_refs
        else:
            counts.data_refs.user += refs
            counts.tlb_misses.user += tlb_missed_refs
            counts.l2_misses.user += l2_missed_refs
            counts.l3_misses.user += l3_missed_refs
            counts.l3_writebacks.user += l3_writeback_refs
            counts.coherence_misses.user += coherence_refs
        tlb_cache.accesses += refs
        tlb_cache.hits += t_hits
        tlb_cache.misses += t_misses
        tlb_cache.evictions += t_evictions
        l2.accesses += refs
        l2.hits += l2_hits
        l2.misses += l2_misses
        l2.evictions += l2_evictions
        l2.writebacks += l2_writebacks
        l2.invalidations += l2_invalidations
        l3.accesses += l3_accesses
        l3.hits += l3_hits
        l3.misses += l3_misses
        l3.evictions += l3_evictions
        l3.writebacks += l3_writebacks

    def fetch_run(self, cpu: int, run: list, kernel: bool) -> None:
        """Walk a run of instruction-fetch byte addresses in one pass.

        Code is read-shared, so no coherence; TC misses fill through
        L2/L3 exactly as :meth:`ReferenceCpu.fetch` does.
        """
        hierarchy = self.cpus[cpu]
        counts = hierarchy.counts
        tc = hierarchy.tc
        tc_sets = tc._sets
        tc_shift = tc._line_shift
        tc_nsets = tc._num_sets
        tc_ways = tc._ways
        l2 = hierarchy.l2
        l2_sets = l2._sets
        l2_shift = l2._line_shift
        l2_nsets = l2._num_sets
        l2_ways = l2._ways
        l3 = hierarchy.l3
        l3_sets = l3._sets
        l3_nsets = l3._num_sets
        l3_ways = l3._ways
        tc_missed_refs = l2_missed_refs = l3_missed_refs = 0
        l3_writeback_refs = 0
        tc_hits = tc_misses = tc_evictions = 0
        l2_accesses = l2_hits = l2_misses = l2_evictions = l2_writebacks = 0
        l2_invalidations = 0
        l3_accesses = l3_hits = l3_misses = l3_evictions = l3_writebacks = 0
        # Hit-streak short-circuit (same argument as access_run): a
        # refetch of the line just fetched is a hit on the MRU entry,
        # so the LRU pop/reinsert is the identity.
        last_tc = -1
        for address in run:
            tc_line = address >> tc_shift
            if tc_line == last_tc:
                tc_hits += 1
                continue
            last_tc = tc_line
            tc_set = tc_sets[tc_line % tc_nsets]
            if tc_set.pop(tc_line, None) is not None:
                tc_hits += 1
                tc_set[tc_line] = False
                continue
            tc_misses += 1
            tc_missed_refs += 1
            if len(tc_set) >= tc_ways:
                del tc_set[next(iter(tc_set))]
                tc_evictions += 1
            tc_set[tc_line] = False
            # Fill from L2/L3 (unified: code rides the data counters).
            l2_accesses += 1
            line = address >> l2_shift
            l2_set = l2_sets[line % l2_nsets]
            dirty = l2_set.pop(line, None)
            if dirty is not None:
                l2_hits += 1
                l2_set[line] = dirty
                continue
            l2_misses += 1
            l2_missed_refs += 1
            if len(l2_set) >= l2_ways:
                victim = next(iter(l2_set))
                if l2_set.pop(victim):
                    l2_writebacks += 1
                l2_evictions += 1
            l2_set[line] = False
            l3_accesses += 1
            l3_set = l3_sets[line % l3_nsets]
            dirty = l3_set.pop(line, None)
            if dirty is not None:
                l3_hits += 1
                l3_set[line] = dirty
                continue
            l3_misses += 1
            l3_missed_refs += 1
            if len(l3_set) >= l3_ways:
                victim = next(iter(l3_set))
                if l3_set.pop(victim):
                    l3_writebacks += 1
                    l3_writeback_refs += 1
                l3_evictions += 1
                victim_set = l2_sets[victim % l2_nsets]
                if victim in victim_set:
                    del victim_set[victim]
                    l2_invalidations += 1
            l3_set[line] = False
        refs = len(run)
        if kernel:
            counts.code_refs.kernel += refs
            counts.tc_misses.kernel += tc_missed_refs
            counts.l2_misses.kernel += l2_missed_refs
            counts.l3_misses.kernel += l3_missed_refs
            counts.l3_writebacks.kernel += l3_writeback_refs
        else:
            counts.code_refs.user += refs
            counts.tc_misses.user += tc_missed_refs
            counts.l2_misses.user += l2_missed_refs
            counts.l3_misses.user += l3_missed_refs
            counts.l3_writebacks.user += l3_writeback_refs
        tc.accesses += refs
        tc.hits += tc_hits
        tc.misses += tc_misses
        tc.evictions += tc_evictions
        l2.accesses += l2_accesses
        l2.hits += l2_hits
        l2.misses += l2_misses
        l2.evictions += l2_evictions
        l2.writebacks += l2_writebacks
        l2.invalidations += l2_invalidations
        l3.accesses += l3_accesses
        l3.hits += l3_hits
        l3.misses += l3_misses
        l3.evictions += l3_evictions
        l3.writebacks += l3_writebacks

    def branch_run(self, cpu: int, run: list, kernel: bool) -> None:
        """Walk packed branches ``(site << 1) | taken`` in one pass."""
        hierarchy = self.cpus[cpu]
        counts = hierarchy.counts
        predictor = hierarchy.predictor
        table = predictor._table
        size = predictor.table_size
        mispredicted = 0
        for code in run:
            index = (code >> 1) % size
            state = table[index]
            if code & 1:
                if state < 2:
                    mispredicted += 1
                if state < 3:
                    table[index] = state + 1
            else:
                if state >= 2:
                    mispredicted += 1
                if state > 0:
                    table[index] = state - 1
        refs = len(run)
        predictor.predictions += refs
        predictor.mispredictions += mispredicted
        if kernel:
            counts.branches.kernel += refs
            counts.mispredicts.kernel += mispredicted
        else:
            counts.branches.user += refs
            counts.mispredicts.user += mispredicted

    def context_switch(self, cpu: int) -> None:
        """Apply context-switch perturbation to TLBs and caches."""
        self.cpus[cpu].context_switch()

    def merged_counts(self) -> HierarchyCounts:
        """Sum of all CPUs' event counts."""
        merged = HierarchyCounts()
        for hierarchy in self.cpus:
            counts = hierarchy.counts
            for name in ("data_refs", "code_refs", "branches", "mispredicts",
                         "tlb_misses", "tc_misses", "l2_misses", "l3_misses",
                         "l3_writebacks", "coherence_misses"):
                target: SplitCount = getattr(merged, name)
                source: SplitCount = getattr(counts, name)
                target.user += source.user
                target.kernel += source.kernel
            merged.context_switches += counts.context_switches
        return merged
