"""Synthetic reference-stream generation.

The paper measures microarchitectural event rates with hardware counters
while ODB runs.  We have no Oracle and no Xeon, so this module generates a
*statistically shaped* reference stream from the system-level behavior the
DES layer measures (blocks read per transaction, context switches per
transaction, OS instruction share) and runs it through the cache/TLB/
branch models of :mod:`repro.hw.hierarchy`.

Stream composition (per user transaction):

- **hot** — SGA metadata: buffer headers, latches, the library cache.
  Small, extremely reused, shared between CPUs (a fraction of accesses
  are writes, which is where coherence traffic comes from).
- **warm** — session state and dictionary caches: a mid-size set that
  fits L3 but not L2.  This is what keeps the L3 miss rate from
  saturating at 100%: the paper observes saturation near 60%.
- **block** — database block data.  Each warehouse contributes a few hot
  lines (index roots and upper levels, popular rows) and a tail of cold
  lines.  As ``W`` grows, this footprint spreads — the *cached region*
  slope of Figures 13/9 comes from here.
- **private** — per-server-process PGA and stack.

Kernel activity is generated as bursts per I/O and per context switch
against a fixed kernel footprint.  At small ``W`` the bursts are rare, so
kernel lines get evicted between bursts (high, noisy OS MPI — Figure 15);
at large ``W`` the bursts are frequent enough to keep the kernel hot set
resident (falling OS MPI), with the DTLB flushed on every switch.

Volumes are *thinned*: the simulated stream carries a calibrated number
of references per transaction, and the caches are shrunk by the same
resolution factor (``micro_scale``, see DESIGN.md §6).  Simulated miss
*ratios* are converted to per-instruction event rates through calibrated
real-machine reference densities (``*_density`` parameters).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.hw.hierarchy import HierarchyCounts, SmpHierarchy
from repro.hw.machine import MachineConfig
from repro.sim.randomness import RandomStreams, sample_cdf, zipf_cdf

# Region base addresses (byte addresses; regions far apart).
_HOT_BASE = 0
_WARM_BASE = 1 << 24
_PRIVATE_BASE = 1 << 25
_KERNEL_DATA_BASE = 1 << 28
_KERNEL_COLD_BASE = 1 << 29
_KERNEL_TASK_BASE = 3 << 28
_KERNEL_SYNC_BASE = 7 << 26
_BLOCK_BASE = 1 << 30
_USER_CODE_BASE = 0
_KERNEL_CODE_BASE = 1 << 22

_LINE = 128  # L2/L3 line size in bytes (both machines)
_CODE_LINE = 64  # TC line size


@dataclass(frozen=True)
class TraceParameters:
    """Calibration constants of the synthetic stream (DESIGN.md §5).

    Calibrated once against the paper's Xeon bands and then held fixed
    for every experiment, machine, and ablation.
    """

    # Real-machine reference densities (events per retired instruction)
    # used to convert simulated miss ratios into per-instruction rates.
    l2_ref_density: float = 0.018
    code_ref_density: float = 0.045
    tlb_ref_density: float = 0.012
    branch_density: float = 0.17
    os_ref_boost: float = 1.2

    # User stream composition.
    p_hot: float = 0.16
    p_warm: float = 0.22
    p_block: float = 0.38
    p_private: float = 0.24
    hot_write_prob: float = 0.06
    warm_write_prob: float = 0.02
    block_write_prob: float = 0.12
    private_write_prob: float = 0.40

    # Footprints, in cache lines of the scaled world.
    hot_lines: int = 64
    warm_lines: int = 320
    private_lines: int = 24
    kernel_data_lines: int = 224
    user_code_lines: int = 400
    kernel_code_lines: int = 160
    hot_blocks_per_warehouse: int = 3
    cold_blocks_per_warehouse: int = 160
    lines_per_block: int = 2

    # Popularity skews.
    hot_skew: float = 0.6
    warm_skew: float = 0.5
    code_skew: float = 0.8
    kernel_skew: float = 0.7
    block_skew: float = 0.7
    hot_block_prob: float = 0.88
    revisit_prob: float = 0.35

    # Simulated volumes per transaction.
    user_refs_per_txn: int = 110
    code_refs_per_txn: int = 55
    branches_per_txn: int = 55
    os_refs_per_io: int = 18
    os_refs_per_cs: int = 10
    os_base_refs: int = 6
    os_code_refs_per_burst: int = 8
    #: Per-I/O references to per-request structures (bio/request slabs)
    #: recycled from a small pool.  When I/O is rare the recycled lines
    #: have been evicted since last use (misses); when I/O is frequent
    #: the pool stays cache-resident (hits).  This is the slab-locality
    #: effect behind the paper's falling OS MPI (Figure 15).
    os_slab_refs_per_io: int = 6
    os_slab_pool_lines: int = 96
    #: Lines of per-process kernel state (task struct, kernel stack)
    #: touched on each context switch.  With many clients churning these
    #: spread across clients and contend for cache space.
    os_task_lines_per_client: int = 12
    os_task_refs_per_cs: int = 6
    #: Shared kernel synchronization structures (wait queues, semaphores)
    #: touched on contention-driven switches.  They are written from
    #: whichever CPU blocks, so they bounce between CPUs — the dominant
    #: OS-side miss source at the 10-warehouse contention spike.
    os_sync_lines: int = 16
    os_sync_refs_per_cs: int = 2

    # Cache shrink factor matching the stream thinning.
    micro_scale: int = 8

    def __post_init__(self) -> None:
        total = self.p_hot + self.p_warm + self.p_block + self.p_private
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"user mix must sum to 1, got {total}")


@dataclass(frozen=True)
class TraceProfile:
    """System-level inputs, produced by the DES layer per configuration."""

    warehouses: int
    processors: int
    clients: int
    user_ipx: float
    os_ipx: float
    reads_per_txn: float
    context_switches_per_txn: float

    def __post_init__(self) -> None:
        if self.warehouses <= 0 or self.processors <= 0 or self.clients <= 0:
            raise ValueError("warehouses, processors, clients must be positive")
        if min(self.user_ipx, self.os_ipx, self.reads_per_txn,
               self.context_switches_per_txn) < 0:
            raise ValueError("profile rates must be >= 0")


@dataclass(frozen=True)
class MicroarchRates:
    """Per-instruction event rates — the Table 2 quantities.

    ``user_l3_mpi`` / ``os_l3_mpi`` are normalized per user / OS
    instruction respectively (Figures 14, 15); ``l3_mpi`` per overall
    instruction (Figure 13).
    """

    mispredicts_per_instr: float
    tlb_misses_per_instr: float
    tc_misses_per_instr: float
    l2_misses_per_instr: float
    l3_misses_per_instr: float
    user_l3_mpi: float
    os_l3_mpi: float
    l3_writeback_ratio: float
    coherence_miss_fraction: float
    l3_miss_ratio: float

    def validate(self) -> None:
        """Sanity-check the miss-rate ordering (L3 <= L2)."""
        if self.l3_misses_per_instr > self.l2_misses_per_instr + 1e-12:
            raise ValueError("L3 misses cannot exceed L2 misses")


class TraceGenerator:
    """Drives an :class:`SmpHierarchy` with the synthetic stream."""

    def __init__(self, machine: MachineConfig, profile: TraceProfile,
                 streams: RandomStreams,
                 params: TraceParameters = TraceParameters()):
        self.machine = machine
        self.profile = profile
        self.params = params
        self.smp = SmpHierarchy(machine, profile.processors,
                                scale=params.micro_scale)
        self._rng = streams.stream("trace")
        p = params
        self._hot_cdf = zipf_cdf(p.hot_lines, p.hot_skew)
        self._warm_cdf = zipf_cdf(p.warm_lines, p.warm_skew)
        self._private_cdf = zipf_cdf(p.private_lines, 0.4)
        self._kernel_cdf = zipf_cdf(p.kernel_data_lines, p.kernel_skew)
        self._user_code_cdf = zipf_cdf(p.user_code_lines, p.code_skew)
        self._kernel_code_cdf = zipf_cdf(p.kernel_code_lines, p.code_skew)
        self._hot_block_cdf = zipf_cdf(p.hot_blocks_per_warehouse, p.block_skew)
        # Per-transaction recent-line window for within-transaction reuse.
        self._recent: list[int] = []
        self._slab_seq = 0
        self._txns_run = 0

    # -- address pickers ----------------------------------------------------

    # The segment methods below run in two batched phases (DESIGN.md
    # §13): a *generation* pass draws every random number in exactly the
    # order of the straightforward per-access formulation and packs the
    # resulting references into a flat run buffer (plain ints: address
    # plus flag bits — no per-access tuples or method calls), then a
    # single *walk* call (:meth:`repro.hw.hierarchy.SmpHierarchy.access_run`
    # and friends) replays the run through the cache models in the
    # compiled walk kernel.  Both phases preserve the reference order, so
    # the cache state evolution — and therefore every count — is
    # bit-identical to the per-access path.

    def _pick(self, base: int, cdf, rng) -> int:
        return base + sample_cdf(rng, cdf) * _LINE

    def _pick_block_address(self, rng) -> int:
        p = self.params
        warehouse = rng.randrange(self.profile.warehouses)
        if rng.random() < p.hot_block_prob:
            block = bisect_left(self._hot_block_cdf, rng.random())
            block_id = warehouse * p.hot_blocks_per_warehouse + block
            region = 0
        else:
            block = rng.randrange(p.cold_blocks_per_warehouse)
            block_id = warehouse * p.cold_blocks_per_warehouse + block
            region = 1 << 38  # cold blocks live far from hot blocks
        line = rng.randrange(p.lines_per_block)
        return _BLOCK_BASE + region + (block_id * p.lines_per_block + line) * _LINE

    # -- stream segments ----------------------------------------------------

    def _user_data_segment(self, cpu: int, client: int, count: int) -> None:
        p = self.params
        rng = self._rng
        rand = rng.random
        # randrange draws are inlined as CPython's
        # Random._randbelow_with_getrandbits loop — identical getrandbits
        # sequence (the stream stays pinned), minus two interpreter
        # frames per draw; _pick_block_address is inlined the same way.
        getrandbits = rng.getrandbits
        recent = self._recent
        hot_cdf = self._hot_cdf
        warm_cdf = self._warm_cdf
        private_cdf = self._private_cdf
        hot_block_cdf = self._hot_block_cdf
        p_hot = p.p_hot
        p_hot_warm = p.p_hot + p.p_warm
        p_hot_warm_block = p_hot_warm + p.p_block
        hot_write_prob = p.hot_write_prob
        warm_write_prob = p.warm_write_prob
        block_write_prob = p.block_write_prob
        private_write_prob = p.private_write_prob
        revisit_prob = p.revisit_prob
        hot_block_prob = p.hot_block_prob
        wh_count = self.profile.warehouses
        wh_bits = wh_count.bit_length()
        hot_per_wh = p.hot_blocks_per_warehouse
        cold_per_wh = p.cold_blocks_per_warehouse
        cold_bits = cold_per_wh.bit_length()
        lines_per_block = p.lines_per_block
        line_bits = lines_per_block.bit_length()
        private_base = _PRIVATE_BASE + client * (p.private_lines * 2) * _LINE
        # Generation pass: pack (address << 2) | write << 1 | shared.
        run: list[int] = []
        append = run.append
        for _ in range(count):
            if recent and rand() < revisit_prob:
                size = len(recent)
                size_bits = size.bit_length()
                pick = getrandbits(size_bits)
                while pick >= size:
                    pick = getrandbits(size_bits)
                append(recent[pick] << 2)
                continue
            u = rand()
            if u < p_hot:
                address = _HOT_BASE + bisect_left(hot_cdf, rand()) * _LINE
                append((address << 2)
                       | (2 if rand() < hot_write_prob else 0) | 1)
            elif u < p_hot_warm:
                address = _WARM_BASE + bisect_left(warm_cdf, rand()) * _LINE
                append((address << 2)
                       | (2 if rand() < warm_write_prob else 0) | 1)
            elif u < p_hot_warm_block:
                warehouse = getrandbits(wh_bits)
                while warehouse >= wh_count:
                    warehouse = getrandbits(wh_bits)
                if rand() < hot_block_prob:
                    block_id = (warehouse * hot_per_wh
                                + bisect_left(hot_block_cdf, rand()))
                    region = 0
                else:
                    block = getrandbits(cold_bits)
                    while block >= cold_per_wh:
                        block = getrandbits(cold_bits)
                    block_id = warehouse * cold_per_wh + block
                    region = 1 << 38   # cold blocks live far from hot
                line = getrandbits(line_bits)
                while line >= lines_per_block:
                    line = getrandbits(line_bits)
                address = (_BLOCK_BASE + region
                           + (block_id * lines_per_block + line) * _LINE)
                append((address << 2)
                       | (2 if rand() < block_write_prob else 0))
                recent.append(address)
                if len(recent) > 24:
                    recent.pop(0)
            else:
                address = (private_base
                           + bisect_left(private_cdf, rand()) * _LINE)
                append((address << 2)
                       | (2 if rand() < private_write_prob else 0))
        if run:
            self.smp.access_run(cpu, run, False)

    def _user_code_segment(self, cpu: int, count: int) -> None:
        rand = self._rng.random
        cdf = self._user_code_cdf
        run = [_USER_CODE_BASE + bisect_left(cdf, rand()) * _CODE_LINE
               for _ in range(count)]
        if run:
            self.smp.fetch_run(cpu, run, False)

    def _branches(self, cpu: int, count: int) -> None:
        rand = self._rng.random
        cdf = self._user_code_cdf
        run: list[int] = []
        append = run.append
        for _ in range(count):
            site = bisect_left(cdf, rand())
            # Per-site taken bias, stable across the run: mostly strongly
            # biased branches with a hard-to-predict minority, as in real
            # integer code.
            bucket = (site * 2654435761) % 20
            if bucket < 12:
                taken_prob = 0.97
            elif bucket < 15:
                taken_prob = 0.03
            elif bucket < 19:
                taken_prob = 0.88
            else:
                taken_prob = 0.55
            append((site << 1) | (1 if rand() < taken_prob else 0))
        if run:
            self.smp.branch_run(cpu, run, False)

    def _kernel_burst(self, cpu: int, refs: int, slab_refs: int = 0,
                      task_client: int | None = None) -> None:
        p = self.params
        rng = self._rng
        rand = rng.random
        kernel_cdf = self._kernel_cdf
        run: list[int] = []
        append = run.append
        for _ in range(refs):
            address = (_KERNEL_DATA_BASE
                       + bisect_left(kernel_cdf, rand()) * _LINE)
            append((address << 2) | (2 if rand() < 0.3 else 0))
        for _ in range(slab_refs):
            # Recycled per-request slab objects: hit when recently reused.
            self._slab_seq += 1
            line = self._slab_seq % p.os_slab_pool_lines
            append(((_KERNEL_COLD_BASE + line * _LINE) << 2) | 2)
        if task_client is not None:
            base = (_KERNEL_TASK_BASE
                    + task_client * p.os_task_lines_per_client * _LINE)
            for _ in range(p.os_task_refs_per_cs):
                offset = rng.randrange(p.os_task_lines_per_client)
                append(((base + offset * _LINE) << 2)
                       | (2 if rand() < 0.4 else 0))
        if run:
            self.smp.access_run(cpu, run, True)
        kernel_code_cdf = self._kernel_code_cdf
        code_run = [
            _KERNEL_CODE_BASE + bisect_left(kernel_code_cdf, rand()) * _CODE_LINE
            for _ in range(p.os_code_refs_per_burst)]
        if code_run:
            self.smp.fetch_run(cpu, code_run, True)

    # -- driving ------------------------------------------------------------

    def run_transaction(self, cpu: int, client: int) -> None:
        """Simulate one transaction's reference stream on ``cpu``."""
        p = self.params
        rng = self._rng
        profile = self.profile
        self._recent = []
        reads = _poisson(rng, profile.reads_per_txn)
        switches = _poisson(rng, profile.context_switches_per_txn)
        # Split the user work into segments separated by I/O waits; each
        # I/O produces a kernel burst and each switch flushes the DTLB.
        segments = max(1, reads + 1)
        user_refs_left = p.user_refs_per_txn
        code_refs_left = p.code_refs_per_txn
        branches_left = p.branches_per_txn
        switches_left = switches
        for segment in range(segments):
            share = user_refs_left // (segments - segment)
            code_share = code_refs_left // (segments - segment)
            branch_share = branches_left // (segments - segment)
            self._user_data_segment(cpu, client, share)
            self._user_code_segment(cpu, code_share)
            self._branches(cpu, branch_share)
            user_refs_left -= share
            code_refs_left -= code_share
            branches_left -= branch_share
            if segment < reads:
                next_client = rng.randrange(profile.clients)
                self._kernel_burst(cpu, p.os_refs_per_io,
                                   slab_refs=p.os_slab_refs_per_io,
                                   task_client=next_client
                                   if switches_left > 0 else None)
                if switches_left > 0:
                    self.smp.context_switch(cpu)
                    switches_left -= 1
        self._kernel_burst(cpu, p.os_base_refs)
        for _ in range(switches_left):
            # Contention-driven switches (lock waits): scheduler work, the
            # incoming process's task state, and the contended wait-queue
            # structures, which bounce between CPUs.
            self._kernel_burst(cpu, p.os_refs_per_cs,
                               task_client=rng.randrange(profile.clients))
            for _ in range(p.os_sync_refs_per_cs):
                address = (_KERNEL_SYNC_BASE
                           + rng.randrange(p.os_sync_lines) * _LINE)
                self.smp.data_access(cpu, address, write=rng.random() < 0.5,
                                     kernel=True, shared=True)
            self.smp.context_switch(cpu)
        self._txns_run += 1

    def run(self, transactions: int, warmup: int = 0) -> MicroarchRates:
        """Run ``transactions`` transactions round-robin over clients.

        Clients stay on their home CPU (run-queue affinity), so each
        CPU's private footprint is ``clients / P`` — this keeps MPI
        comparable across processor counts, as the paper observes
        (Section 5.2).  ``warmup`` transactions run first and their
        counts are discarded, mirroring the paper's 20-minute warm-up.
        """
        profile = self.profile
        for index in range(warmup):
            client = index % profile.clients
            self.run_transaction(client % profile.processors, client)
        self._reset_counts()
        for index in range(transactions):
            client = index % profile.clients
            self.run_transaction(client % profile.processors, client)
        return self.rates()

    def _reset_counts(self) -> None:
        for hierarchy in self.smp.cpus:
            hierarchy.reset_counts()
        directory = self.smp.directory
        directory.invalidations = 0
        directory.interventions = 0
        directory.coherence_misses = 0

    def counts(self) -> HierarchyCounts:
        """Raw merged event counts (for the EMON layer)."""
        return self.smp.merged_counts()

    def rates(self) -> MicroarchRates:
        """Convert simulated counts into per-instruction event rates."""
        p = self.params
        counts = self.smp.merged_counts()
        data = counts.data_refs
        code = counts.code_refs

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        user_density = p.l2_ref_density
        os_density = p.l2_ref_density * p.os_ref_boost
        user_ipx = self.profile.user_ipx
        os_ipx = self.profile.os_ipx
        total_ipx = user_ipx + os_ipx

        user_l3_mpi = ratio(counts.l3_misses.user, data.user) * user_density
        os_l3_mpi = ratio(counts.l3_misses.kernel, data.kernel) * os_density
        l3_mpi = ((user_l3_mpi * user_ipx + os_l3_mpi * os_ipx) / total_ipx
                  if total_ipx else 0.0)

        # Code fills that miss in L2/L3 are counted in the same l2/l3
        # counters by fetch(), so they ride along with the data ratios;
        # code traffic is a small share of unified-cache misses here.
        user_l2_mpi = ratio(counts.l2_misses.user, data.user) * user_density
        os_l2_mpi = ratio(counts.l2_misses.kernel, data.kernel) * os_density
        l2_mpi = ((user_l2_mpi * user_ipx + os_l2_mpi * os_ipx) / total_ipx
                  if total_ipx else 0.0)

        tc_rate = ratio(counts.tc_misses.total, code.total) * p.code_ref_density
        tlb_rate = ratio(counts.tlb_misses.total, data.total) * p.tlb_ref_density
        mispredict_rate = (ratio(counts.mispredicts.total, counts.branches.total)
                           * p.branch_density)

        rates = MicroarchRates(
            mispredicts_per_instr=mispredict_rate,
            tlb_misses_per_instr=tlb_rate,
            tc_misses_per_instr=tc_rate,
            l2_misses_per_instr=max(l2_mpi, l3_mpi),
            l3_misses_per_instr=l3_mpi,
            user_l3_mpi=user_l3_mpi,
            os_l3_mpi=os_l3_mpi,
            l3_writeback_ratio=ratio(counts.l3_writebacks.total,
                                     counts.l3_misses.total),
            coherence_miss_fraction=ratio(counts.coherence_misses.total,
                                          counts.l3_misses.total),
            l3_miss_ratio=ratio(counts.l3_misses.total, counts.l2_misses.total),
        )
        rates.validate()
        return rates


def _poisson(rng, mean: float) -> int:
    """Small-mean Poisson sample (Knuth's method; mean is O(10) here)."""
    if mean <= 0:
        return 0
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
