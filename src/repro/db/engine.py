"""The database engine facade.

A server process executes a transaction as a sequence of calls into this
facade while holding a CPU claim.  The facade implements the paper's
Figure 1 mechanics:

- a buffer-cache reference that misses initiates a disk transfer and
  "relinquishes control of the CPU so that another server process can
  execute" (Section 3.1) — a context switch;
- hot-row locks are held to commit, so contention at small W turns into
  lock-wait context switches;
- commit appends redo and blocks until the log writer's group commit
  flushes it.

Every call takes the caller's current CPU claim and returns the claim it
holds afterwards (re-acquired if the call had to block).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.locks import LockTable
from repro.db.redo import RedoLog
from repro.hw.cwalk import lib
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.resources import Request
from repro.sim.stats import Counter


@dataclass
class TransactionStats:
    """Per-transaction accounting filled in by the facade."""

    logical_reads: int = 0
    physical_reads: int = 0
    lock_waits: int = 0
    blocks_dirtied: int = 0
    committed: bool = False


_lru_lookup = lib.lru_lookup


class DatabaseEngine:
    """Buffer cache + locks + redo + writer behind one interface."""

    def __init__(self, engine: Engine, scheduler: Scheduler, disks: DiskArray,
                 buffer_cache: BufferCache, lock_table: LockTable,
                 redo: RedoLog, dbwriter: DbWriter):
        self.engine = engine
        self.scheduler = scheduler
        self.disks = disks
        self.buffer_cache = buffer_cache
        self._lru = buffer_cache.c
        self.lock_table = lock_table
        self.redo = redo
        self.dbwriter = dbwriter
        self.transactions = Counter("transactions-committed")
        self.aborted = Counter("transactions-aborted")
        self.physical_reads = Counter("physical-reads")
        self.logical_reads = Counter("logical-reads")
        self.lock_wait_switches = Counter("lock-wait-switches")

    # -- block access ---------------------------------------------------------

    def reference(self, block_id: int, write: bool,
                  stats: TransactionStats) -> bool:
        """Reference one block unit in the buffer cache; True on a hit.

        A plain call, not a generator: a hit costs no simulated time and
        no event.  On a miss the caller runs :meth:`read_miss`.  The
        lookup (read or write) is one kernel call, ``lru_lookup`` on the
        cache's kernel state.
        """
        self.logical_reads.count += 1
        stats.logical_reads += 1
        if write:
            stats.blocks_dirtied += 1
        return _lru_lookup(self._lru, block_id, write)

    def read_miss(self, claim: Request, block_id: int, write: bool,
                  stats: TransactionStats):
        """The I/O dance after a :meth:`reference` miss: submit the read,
        give up the CPU, sleep on the transfer, re-acquire a CPU and
        install the block (handing a dirty victim to the writer).

        Returns the CPU claim held afterwards.
        """
        self.physical_reads.count += 1
        stats.physical_reads += 1
        scheduler = self.scheduler
        yield from scheduler.execute_os(scheduler.costs.io_submit)
        yield from scheduler.block(claim)
        yield from self.disks.read(block_id)
        claim = scheduler.acquire()
        yield claim
        yield from scheduler.execute_os(scheduler.costs.io_complete)
        victim = self.buffer_cache.install(block_id, dirty=write)
        if victim is not None:
            victim_id, victim_dirty = victim
            if victim_dirty:
                self.dbwriter.enqueue(victim_id)
        return claim

    # -- locking ----------------------------------------------------------------

    #: Latch-style waiting: a blocked process re-wakes this often to
    #: retry, costing a context-switch pair each time (Oracle latches
    #: and buffer-busy waits spin-and-sleep rather than sleeping once).
    LATCH_SLEEP_S = 0.001

    def lock(self, claim: Request, owner: object, key: Hashable,
             stats: TransactionStats):
        """Take an exclusive held-to-commit lock; blocks when contended.

        Returns the CPU claim held afterwards.  Contended acquisitions
        model Oracle's sleep-retry latching: besides the initial blocking
        switch, every ``LATCH_SLEEP_S`` of wait time costs another
        wake-check-sleep context switch and its kernel instructions —
        this is what makes the 10-warehouse contention point so
        switch-heavy (Figure 8).
        """
        scheduler = self.scheduler
        if self.lock_table.would_wait(owner, key):
            # We will wait: give up the CPU first (that's the context
            # switch the paper attributes to data contention).
            yield from scheduler.block(claim)
            stats.lock_waits += 1
            self.lock_wait_switches.count += 1
            wait_started = self.engine._now
            yield from self.lock_table.acquire(owner, key)
            waited = self.engine._now - wait_started
            claim = scheduler.acquire()
            yield claim
            # Short waits are latch-style sleep-retry loops; long waits
            # park on a semaphore and wake once when granted.
            if waited < 5 * self.LATCH_SLEEP_S:
                retries = int(waited / self.LATCH_SLEEP_S)
            else:
                retries = 0
            if retries:
                scheduler.context_switches.add(retries)
                yield from scheduler.execute_os(
                    retries * scheduler.costs.context_switch)
        else:
            yield from self.lock_table.acquire(owner, key)
        return claim

    # -- commit -------------------------------------------------------------------

    def commit(self, claim: Request, owner: object, stats: TransactionStats,
               redo_bytes: float | None = None):
        """Append redo, wait for group commit, release locks.

        Returns the CPU claim held afterwards (re-acquired after the
        flush wait).
        """
        scheduler = self.scheduler
        sequence = self.redo.append(redo_bytes)
        if self.redo.flushed_sequence >= sequence:
            # Already durable (possible only with a zero-latency log).
            self.lock_table.release_all(owner)
            stats.committed = True
            self.transactions.count += 1
            return claim
        yield from scheduler.block(claim)
        yield from self.redo.wait_for_flush(sequence)
        claim = scheduler.acquire()
        yield claim
        self.lock_table.release_all(owner)
        stats.committed = True
        self.transactions.count += 1
        return claim

    def abort(self, owner: object) -> None:
        """Release everything without committing.

        The healthy ODB mix never aborts; fault injection
        (:class:`repro.faults.TransientAborts`) turns transactions into
        transient victims at commit time, and the client retries them
        with backoff.
        """
        self.lock_table.release_all(owner)
        self.aborted.add()
