"""The assembled ODB testbed.

One :class:`OdbSystem` is a complete simulated machine-plus-database: a
DES engine, ``P`` scheduled CPUs, the disk array, the SGA buffer cache,
the lock table, the redo log with its log-writer process, the database
writer, and ``C`` client processes.  ``run()`` executes a warm-up phase
followed by a measurement window and returns :class:`SystemMetrics` —
the system-level quantities of Section 4 (TPS, IPX and its user/OS
split, disk I/O and context switches per transaction, utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.db.blocks import BlockSpace
from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.engine import DatabaseEngine, TransactionStats
from repro.db.locks import LockTable
from repro.db.redo import RedoLog, log_writer_process
from repro.faults import DiskFaultModel, FaultPlan, lock_storm_process
from repro.hw.machine import MachineConfig, XEON_MP_QUAD
from repro.odb.client import client_process
from repro.odb.mix import TransactionMix
from repro.odb.schema import OdbSchema
from repro.odb.transactions import _SegmentSampler, TransactionProfile
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.osmodel.disks import DiskArray
from repro.osmodel.kernelcost import KernelCosts
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.engine import publish_scheduler_metrics
from repro.sim.randomness import RandomStreams
from repro.sim.stats import Counter

#: A real database block: a buffer-cache miss is one physical read of
#: this size regardless of the block-unit resolution (DESIGN.md §6).
PHYSICAL_BLOCK_BYTES = 8 * 1024

#: ``(key, BufferCache.snapshot())`` of the most recent prewarm in this
#: process, so fixed-point rounds and points that differ only in P, C,
#: CPI or faults restore it instead of replaying (DESIGN.md §13,
#: "Prewarm reuse").  One entry bounds the memory at one snapshot.
_prewarm_memo: Optional[tuple[tuple, dict[int, bool]]] = None


def _clear_prewarm_memo() -> None:
    """Forget the memoised prewarm (a test hook)."""
    global _prewarm_memo
    _prewarm_memo = None


@dataclass(frozen=True)
class OdbConfig:
    """One OLTP configuration point: (W, C, P) plus the machine."""

    warehouses: int
    clients: int
    processors: int
    machine: MachineConfig = XEON_MP_QUAD
    unit_bytes: int = 64 * 1024
    seed: int = 42
    #: Share of the SGA devoted to the database buffer cache (the paper's
    #: setup: 2.8 GB of the 3 GB SGA).
    buffer_cache_fraction: float = 2.8 / 3.0
    remote_touch_prob: float = 0.10
    #: Initial CPI guesses; the experiment runner refines them through
    #: fixed-point iteration with the microarchitecture model.
    user_cpi: float = 2.5
    os_cpi: float = 2.0
    #: Optional fault-injection plan (repro.faults); None = healthy run.
    #: Strictly opt-in: with no plan the simulation is bit-identical to a
    #: build without the fault layer.
    faults: Optional[FaultPlan] = None
    #: Optional compiled workload (repro.workload.CompiledWorkload,
    #: duck-typed to keep odb import-independent of the DSL layer).
    #: None = the built-in standard ODB mix; a compiled ``odb-standard``
    #: spec is value-identical and therefore bit-identical at run time.
    workload: Optional[object] = None

    def __post_init__(self) -> None:
        if self.warehouses <= 0 or self.clients <= 0:
            raise ValueError("warehouses and clients must be positive")
        if not 1 <= self.processors <= self.machine.max_processors:
            raise ValueError(
                f"processors must be 1..{self.machine.max_processors}")
        if not 0.0 < self.buffer_cache_fraction <= 1.0:
            raise ValueError("buffer_cache_fraction must be in (0, 1]")
        if self.user_cpi <= 0 or self.os_cpi <= 0:
            raise ValueError("CPI values must be positive")

    def with_cpi(self, user_cpi: float, os_cpi: float) -> "OdbConfig":
        """Copy of the config with replaced user/OS CPI values."""
        import dataclasses

        return dataclasses.replace(self, user_cpi=user_cpi, os_cpi=os_cpi)


@dataclass(frozen=True)
class SystemMetrics:
    """Measured system-level behavior over one measurement window."""

    warehouses: int
    clients: int
    processors: int
    elapsed_s: float
    transactions: int
    tps: float
    cpu_utilization: float
    user_busy_share: float
    os_busy_share: float
    user_ipx: float
    os_ipx: float
    reads_per_txn: float
    data_writes_per_txn: float
    log_flushes_per_txn: float
    log_bytes_per_txn: float
    context_switches_per_txn: float
    lock_waits_per_txn: float
    buffer_hit_rate: float
    disk_utilization: float
    max_disk_utilization: float
    read_latency_s: float
    commit_wait_s: float
    group_commit_size: float
    #: Fault-injection resilience counters (0.0 on a healthy run): how
    #: many transient aborts and client retries happened per *committed*
    #: transaction.
    aborts_per_txn: float = 0.0
    retries_per_txn: float = 0.0

    @property
    def ipx(self) -> float:
        """Total instructions per transaction (Figure 4)."""
        return self.user_ipx + self.os_ipx

    @property
    def io_read_kb_per_txn(self) -> float:
        """Read traffic per transaction in KB (Figure 7's units)."""
        return self.reads_per_txn * PHYSICAL_BLOCK_BYTES / 1024.0

    @property
    def io_write_kb_per_txn(self) -> float:
        """Write traffic per transaction in KB: dirty writebacks plus redo."""
        return (self.data_writes_per_txn * PHYSICAL_BLOCK_BYTES / 1024.0
                + self.log_bytes_per_txn / 1024.0)

    @property
    def io_total_kb_per_txn(self) -> float:
        """Read + write KB per transaction."""
        return self.io_read_kb_per_txn + self.io_write_kb_per_txn


class OdbSystem:
    """A fully assembled simulated testbed for one configuration."""

    def __init__(self, config: OdbConfig):
        self.config = config
        machine = config.machine
        self.engine = Engine()
        self.streams = RandomStreams(config.seed)
        self.scheduler = Scheduler(self.engine, config.processors,
                                   machine.frequency_hz, KernelCosts())
        self.scheduler.user_spi = config.user_cpi / machine.frequency_hz
        self.scheduler.os_spi = config.os_cpi / machine.frequency_hz
        self.disks = DiskArray(self.engine, machine.disks, self.streams)
        schema = OdbSchema(config.warehouses, config.unit_bytes)
        self.schema = schema
        self.space: BlockSpace = schema.build_block_space()
        self.workload = config.workload
        self.remote_touch_prob = config.remote_touch_prob
        if self.workload is not None:
            custom_space = self.workload.build_block_space(
                config.warehouses, config.unit_bytes)
            if custom_space is not None:
                self.space = custom_space
            if self.workload.remote_touch_prob is not None:
                self.remote_touch_prob = self.workload.remote_touch_prob
        capacity_units = max(
            1, int(machine.sga_bytes * config.buffer_cache_fraction)
            // config.unit_bytes)
        self.buffer_cache = BufferCache(capacity_units)
        self.lock_table = LockTable(self.engine)
        self.redo = RedoLog(self.engine)
        self.dbwriter = DbWriter(self.engine, self.disks, self.scheduler)
        self.db = DatabaseEngine(self.engine, self.scheduler, self.disks,
                                 self.buffer_cache, self.lock_table,
                                 self.redo, self.dbwriter)
        if self.workload is not None:
            # The phase clock reads simulated time lazily, so a schedule
            # follows the engine without the mix holding engine state.
            self.mix = self.workload.build_mix(clock=lambda: self.engine.now)
        else:
            self.mix = TransactionMix()
        self.sampler = _SegmentSampler(self.space)
        self._txn_log: list[tuple[str, TransactionStats]] = []
        # Fault injection (strictly opt-in; see repro.faults).  Fault
        # randomness derives from the plan's own seed so the workload
        # streams stay untouched.
        self.faults = config.faults
        self.fault_streams = None
        self.retries = Counter("txn-retries")
        self.abandoned = Counter("txn-abandoned")
        log_stalls: tuple = ()
        if self.faults is not None:
            self.fault_streams = RandomStreams(self.faults.seed)
            if self.faults.disks:
                self.disks.fault_model = DiskFaultModel(
                    self.faults, self.disks.data_disk_count)
            log_stalls = self.faults.log_stalls
            for index, storm in enumerate(self.faults.lock_storms):
                self.engine.process(lock_storm_process(
                    self.engine, self.lock_table, storm, config.warehouses,
                    self.fault_streams.stream(f"storm-{index}"),
                    storm_index=index))
        # Background processes.
        self.engine.process(log_writer_process(
            self.engine, self.redo, self.disks, self.scheduler,
            stalls=log_stalls))
        self.engine.process(self.dbwriter.process())
        self.engine.process(self.dbwriter.checkpoint_process(self.buffer_cache))
        for client_id in range(config.clients):
            self.engine.process(client_process(self, client_id))

    # -- hooks ----------------------------------------------------------------

    def note_transaction(self, profile: TransactionProfile,
                         stats: TransactionStats) -> None:
        """Called by clients at commit (kept small: counts live in parts)."""
        self._txn_log.append((profile.name, stats))
        if len(self._txn_log) > 50_000:
            del self._txn_log[:25_000]

    # -- warm-up --------------------------------------------------------------

    def prewarm_buffer_cache(self, plans: int = 1000) -> None:
        """Populate the buffer cache with its steady-state working set.

        Stands in for the paper's 20-minute warm-up: an analytic
        popularity fill loads the cache to capacity with the hottest
        units (see :mod:`repro.odb.popularity`), then a short plan replay
        freshens LRU recency with realistic access interleaving.
        """
        from repro.odb.popularity import steady_state_fill

        steady_state_fill(self.buffer_cache, self.space, self.mix.profiles)
        # The plans are sampled in the walk kernel, a buffer at a time;
        # the clock stands still during prewarm, so a phased mix draws
        # from one phase throughout.
        cache = self.buffer_cache
        lookup = cache.lookup
        touch_write = cache.touch_write
        install = cache.install
        for touches in self.sampler.sample_plans(
                self.streams.stream("prewarm"), self.mix.active(),
                self.config.warehouses, self.remote_touch_prob, plans):
            for code in touches:
                block_id = code >> 1
                if code & 1:
                    if not touch_write(block_id):
                        install(block_id, True)
                elif not lookup(block_id):
                    install(block_id, False)
        cache.reset_stats()

    def _prewarm_once(self, plans: int) -> bool:
        """:meth:`prewarm_buffer_cache`, or a restore of the memoised
        result when every input it reads matches; True on a restore."""
        global _prewarm_memo
        config = self.config
        key = (config.seed, config.warehouses, config.unit_bytes,
               config.workload, self.remote_touch_prob,
               self.buffer_cache.capacity_units, plans)
        memo = _prewarm_memo
        if memo is not None and memo[0] == key:
            self.buffer_cache.restore(memo[1])
            return True
        self.prewarm_buffer_cache(plans)
        _prewarm_memo = (key, self.buffer_cache.snapshot())
        return False

    # -- measurement -----------------------------------------------------------

    def _snapshot(self) -> dict[str, float]:
        snap = self.scheduler.snapshot()
        snap.update({
            "time": self.engine.now,
            "transactions": self.db.transactions.snapshot(),
            "aborted": self.db.aborted.snapshot(),
            "retries": self.retries.snapshot(),
            "physical_reads": self.db.physical_reads.snapshot(),
            "logical_reads": self.db.logical_reads.snapshot(),
            "lock_wait_switches": self.db.lock_wait_switches.snapshot(),
            "data_writes": self.disks.writes.snapshot(),
            "log_writes": self.disks.log_writes.snapshot(),
            "log_bytes": self.redo.bytes_written.snapshot(),
            "log_flushes": self.redo.flushes.snapshot(),
            "buffer_hits": float(self.buffer_cache.hits),
            "buffer_misses": float(self.buffer_cache.misses),
            "disk_busy": sum(d.busy_time() for d in self.disks._data_disks),
            "disk_busy_max": max(d.busy_time() for d in self.disks._data_disks),
        })
        return snap

    def _run_until_transactions(self, target: int, time_limit_s: float) -> None:
        # The commit count is checked before every event (an overshoot
        # would shift the measurement snapshot).  The clock is left at
        # the last event, never pinned to the deadline: the measurement
        # window runs from commit-driven snapshot to snapshot.
        engine = self.engine
        engine.run(engine.now + time_limit_s,
                   stop=(self.db.transactions, target))

    def run(self, warmup_txns: int = 500, measure_txns: int = 2000,
            prewarm_plans: int = 4000,
            time_limit_s: float = 3600.0) -> SystemMetrics:
        """Warm up, measure, and summarize.

        ``time_limit_s`` bounds simulated time so an I/O-bound
        configuration that cannot reach the transaction target still
        terminates (its low TPS is the result, not an error).
        """
        if prewarm_plans > 0 and self.db.transactions.count == 0:
            with _tracing.span("des-prewarm") as span:
                reused = self._prewarm_once(prewarm_plans)
                if span is not None:
                    span.count("reused", int(reused))
            if _metrics.ACTIVE:
                _metrics.inc("odb.prewarm.reused", int(reused))
        with _tracing.span("des-warmup") as span:
            self._run_until_transactions(warmup_txns, time_limit_s)
            if span is not None:
                span.count("transactions", self.db.transactions.count)
        before = self._snapshot()
        with _tracing.span("des-measure") as span:
            self._run_until_transactions(warmup_txns + measure_txns,
                                         time_limit_s)
            if span is not None:
                span.count("transactions",
                           self.db.transactions.count - warmup_txns)
                span.count("sim_time_s", self.engine.now)
        after = self._snapshot()
        if _metrics.ACTIVE:
            # DES totals at the phase boundary: the transactions measured
            # plus the engine's cumulative queue counters (once per
            # engine lifetime).  Events and simulated time are counted
            # by each Engine.run call.
            _metrics.inc("engine.des_runs")
            _metrics.inc("engine.transactions",
                         after["transactions"] - before["transactions"])
            publish_scheduler_metrics(self.engine)
        return self._metrics(before, after)

    def _metrics(self, before: dict[str, float],
                 after: dict[str, float]) -> SystemMetrics:
        elapsed = after["time"] - before["time"]
        txns = after["transactions"] - before["transactions"]
        if elapsed <= 0 or txns <= 0:
            raise RuntimeError(
                "measurement window is empty; raise time_limit_s or lower "
                "the transaction targets")

        def per_txn(key: str) -> float:
            return (after[key] - before[key]) / txns

        user_busy = after["user_busy_s"] - before["user_busy_s"]
        os_busy = after["os_busy_s"] - before["os_busy_s"]
        busy = user_busy + os_busy
        cpu_busy = after["cpu_busy_time"] - before["cpu_busy_time"]
        hits = after["buffer_hits"] - before["buffer_hits"]
        misses = after["buffer_misses"] - before["buffer_misses"]
        lookups = hits + misses
        return SystemMetrics(
            warehouses=self.config.warehouses,
            clients=self.config.clients,
            processors=self.config.processors,
            elapsed_s=elapsed,
            transactions=int(txns),
            tps=txns / elapsed,
            cpu_utilization=cpu_busy / (self.config.processors * elapsed),
            user_busy_share=user_busy / busy if busy else 0.0,
            os_busy_share=os_busy / busy if busy else 0.0,
            user_ipx=per_txn("user_instructions"),
            os_ipx=per_txn("os_instructions"),
            reads_per_txn=per_txn("physical_reads"),
            data_writes_per_txn=per_txn("data_writes"),
            log_flushes_per_txn=per_txn("log_flushes"),
            log_bytes_per_txn=per_txn("log_bytes"),
            context_switches_per_txn=per_txn("context_switches"),
            lock_waits_per_txn=per_txn("lock_wait_switches"),
            buffer_hit_rate=hits / lookups if lookups else 0.0,
            disk_utilization=(after["disk_busy"] - before["disk_busy"])
            / (self.disks.data_disk_count * elapsed),
            max_disk_utilization=(after["disk_busy_max"] - before["disk_busy_max"])
            / elapsed,
            read_latency_s=self.disks.read_latency.mean,
            commit_wait_s=self.redo.commit_wait.mean,
            group_commit_size=self.redo.group_size.mean,
            aborts_per_txn=per_txn("aborted"),
            retries_per_txn=per_txn("retries"),
        )
