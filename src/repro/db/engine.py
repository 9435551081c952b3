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

from typing import Hashable

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.locks import LockTable
from repro.db.redo import RedoLog
from repro.hw.sampling import address
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.engine import _des
from repro.sim.resources import Request
from repro.sim.stats import Counter


class DatabaseEngine(_des.DatabaseEngine):
    """Buffer cache + locks + redo + writer behind one interface.

    ``read_miss(claim, block_id, write)`` is the I/O after a
    buffer-cache miss, compiled (``_des.ReadMiss``; DESIGN.md §11,
    "Compiled OS operations"): it counts the physical read, submits it
    (``io_submit``), gives up the CPU (``Scheduler.block``), sleeps on
    the disk read, re-acquires a CPU, completes it (``io_complete``),
    installs the block in the kernel LRU (dirty for a write) and hands a
    dirty victim to the writer.  ``yield from`` it for the CPU claim
    held afterwards.  The lookup itself is one kernel call the client
    makes, ``lru_lookup`` on the cache's kernel state: a hit costs no
    simulated time and no event.  ``scheduler``, ``disks`` and
    ``physical_reads`` live on the compiled base.
    """

    def __init__(self, engine: Engine, scheduler: Scheduler, disks: DiskArray,
                 buffer_cache: BufferCache, lock_table: LockTable,
                 redo: RedoLog, dbwriter: DbWriter):
        super().__init__(scheduler, disks, buffer_cache,
                         address(buffer_cache.c), dbwriter.enqueue)
        self.engine = engine
        self.buffer_cache = buffer_cache
        self.lock_table = lock_table
        self.redo = redo
        self.dbwriter = dbwriter
        self.transactions = Counter("transactions-committed")
        self.aborted = Counter("transactions-aborted")
        self.lock_wait_switches = Counter("lock-wait-switches")

    # -- locking ----------------------------------------------------------------

    #: Latch-style waiting: a blocked process re-wakes this often to
    #: retry, costing a context-switch pair each time (Oracle latches
    #: and buffer-busy waits spin-and-sleep rather than sleeping once).
    LATCH_SLEEP_S = 0.001

    def lock(self, claim: Request, owner: object, key: Hashable):
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

    def commit(self, claim: Request, owner: object, redo_bytes: float):
        """Append redo, wait for group commit, release locks.

        Returns the CPU claim held afterwards (re-acquired after the
        flush wait).
        """
        scheduler = self.scheduler
        # Never durable yet: the log writer flushes only what was
        # appended before its round began.
        sequence = self.redo.append(redo_bytes)
        yield from scheduler.block(claim)
        yield from self.redo.wait_for_flush(sequence)
        claim = scheduler.acquire()
        yield claim
        self.lock_table.release_all(owner)
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
