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

from dataclasses import dataclass

from repro.hw.coherence import _grown
from repro.hw.cwalk import ffi, lib
from repro.hw.hierarchy import HierarchyCounts, SmpHierarchy
from repro.hw.machine import MachineConfig
from repro.hw.sampling import (
    RANDBELOW_LIMIT,
    check_bound,
    poisson_threshold,
    zipf_array,
)
from repro.sim.randomness import RandomStreams


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
    """Drives an :class:`SmpHierarchy` with the synthetic stream.

    The stream is sampled and walked in the walk kernel (DESIGN.md §11,
    "Compiled sampling"): a ``gen_t`` points at the kernel stream
    ``trace``, the Zipf CDFs and the CPUs' kernel state of :attr:`smp`,
    and holds the stream parameters; its transaction loop fills each
    segment into a buffer and walks it there.
    """

    def __init__(self, machine: MachineConfig, profile: TraceProfile,
                 streams: RandomStreams,
                 params: TraceParameters = TraceParameters()):
        self.machine = machine
        self.profile = profile
        self.params = params
        p = params
        for name, bound in (
                ("warehouses", profile.warehouses),
                ("clients", profile.clients),
                ("cold_blocks_per_warehouse", p.cold_blocks_per_warehouse),
                ("lines_per_block", p.lines_per_block),
                ("os_slab_pool_lines", p.os_slab_pool_lines),
                ("os_task_lines_per_client", p.os_task_lines_per_client),
                ("os_sync_lines", p.os_sync_lines)):
            check_bound(name, bound)
        self._smp = SmpHierarchy(machine, profile.processors,
                                 scale=params.micro_scale)
        #: The kernel stream every draw of the trace comes from.
        self._mt = streams.kernel_stream("trace")
        shapes = ((p.hot_lines, p.hot_skew), (p.warm_lines, p.warm_skew),
                  (p.private_lines, 0.4),
                  (p.kernel_data_lines, p.kernel_skew),
                  (p.user_code_lines, p.code_skew),
                  (p.kernel_code_lines, p.code_skew),
                  (p.hot_blocks_per_warehouse, p.block_skew))
        # The gen_t points into these arrays and into self._smp's state.
        self._cdfs = [zipf_array(n, skew) for n, skew in shapes]
        self._cpus = ffi.new("hier_t *[]", self._smp._states)
        # One run buffer, as long as the longest segment, burst or batch
        # of sync references; each run is walked before the next is filled.
        self._buffer = ffi.new("uint64_t[]", max(
            p.user_refs_per_txn, p.code_refs_per_txn, p.branches_per_txn,
            p.os_code_refs_per_burst, p.os_base_refs,
            p.os_refs_per_io + p.os_slab_refs_per_io + p.os_task_refs_per_cs,
            p.os_refs_per_cs + p.os_task_refs_per_cs, p.os_sync_refs_per_cs))
        p_hot_warm = p.p_hot + p.p_warm
        self._gen = ffi.new("gen_t *", {
            "mt": self._mt,
            "cdf": self._cdfs,
            "cdf_len": [n for n, _ in shapes],
            "p_hot": p.p_hot,
            "p_hot_warm": p_hot_warm,
            "p_hot_warm_block": p_hot_warm + p.p_block,
            "hot_write_prob": p.hot_write_prob,
            "warm_write_prob": p.warm_write_prob,
            "block_write_prob": p.block_write_prob,
            "private_write_prob": p.private_write_prob,
            "revisit_prob": p.revisit_prob,
            "hot_block_prob": p.hot_block_prob,
            "warehouses": profile.warehouses,
            "hot_blocks_per_wh": p.hot_blocks_per_warehouse,
            "cold_blocks_per_wh": p.cold_blocks_per_warehouse,
            "lines_per_block": p.lines_per_block,
            "slab_pool_lines": p.os_slab_pool_lines,
            "task_lines_per_client": p.os_task_lines_per_client,
            "task_refs_per_cs": p.os_task_refs_per_cs,
            "cpus": self._cpus,
            "buffer": self._buffer,
            "processors": profile.processors,
            "clients": profile.clients,
            "private_lines": p.private_lines,
            "reads_threshold": poisson_threshold(profile.reads_per_txn),
            "switches_threshold": poisson_threshold(
                profile.context_switches_per_txn),
            "user_refs": p.user_refs_per_txn,
            "code_refs": p.code_refs_per_txn,
            "branches": p.branches_per_txn,
            "io_refs": p.os_refs_per_io,
            "io_slab_refs": p.os_slab_refs_per_io,
            "base_refs": p.os_base_refs,
            "cs_refs": p.os_refs_per_cs,
            "burst_code_refs": p.os_code_refs_per_burst,
            "sync_lines": p.os_sync_lines,
            "sync_refs_per_cs": p.os_sync_refs_per_cs,
        })

    @property
    def smp(self) -> SmpHierarchy:
        """The hierarchy the kernel walks.  Read-only: the ``gen_t``
        points into the state of the one built with the generator."""
        return self._smp

    # -- driving ------------------------------------------------------------

    # A transaction runs in the kernel (``trace_transaction`` in
    # ``_walk.c``) as a sequence of segments: user data, user code,
    # branches, kernel bursts, context switches.  Each segment is
    # filled into the run buffer, drawing in exactly the order of the
    # per-access Python formulation (``tests/hw/reference_trace.py``),
    # and walked there through the cache models, so every count is
    # bit-identical to that path.

    def run_transaction(self, cpu: int, client: int) -> None:
        """Simulate one transaction's reference stream on ``cpu``."""
        if not 0 <= cpu < self.profile.processors:
            raise ValueError(
                f"cpu {cpu} out of range (P={self.profile.processors})")
        if not 0 <= client < RANDBELOW_LIMIT:
            raise ValueError(f"client must be in 0..2**32-1, got {client}")
        _grown(lib.trace_transaction(self._gen, cpu, client))

    def run(self, transactions: int, warmup: int = 0) -> MicroarchRates:
        """Run ``transactions`` transactions round-robin over clients.

        Clients stay on their home CPU (run-queue affinity), so each
        CPU's private footprint is ``clients / P`` — this keeps MPI
        comparable across processor counts, as the paper observes
        (Section 5.2).  ``warmup`` transactions run first and their
        counts are discarded, mirroring the paper's 20-minute warm-up.
        """
        _grown(lib.trace_run(self._gen, max(0, warmup)))
        self._reset_counts()
        _grown(lib.trace_run(self._gen, max(0, transactions)))
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
