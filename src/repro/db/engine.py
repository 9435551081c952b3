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

Every call that may block takes the caller's current CPU claim and ends
with the claim it holds afterwards (re-acquired if the call had to
block).
"""

from __future__ import annotations

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.locks import LockTable
from repro.db.redo import RedoLog
from repro.hw.sampling import address
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.engine import _des


class DatabaseEngine(_des.DatabaseEngine):
    """Buffer cache + locks + redo + writer behind one interface.

    The transaction path is compiled (``_des.DatabaseEngine``; DESIGN.md
    §11, "Compiled OS operations"); each call below returns one
    compiled operation to ``yield from`` for the CPU claim held
    afterwards:

    - ``read_miss(claim, block_id, write)``, the I/O after a
      buffer-cache miss: it counts the physical read, submits it
      (``io_submit``), gives up the CPU (``Scheduler.block``), sleeps on
      the disk read, re-acquires a CPU, completes it (``io_complete``),
      installs the block in the kernel LRU (dirty for a write) and hands
      a dirty victim to the writer.  The lookup itself is one kernel
      call, ``lru_lookup`` on the cache's kernel state: a hit costs no
      simulated time and no event;
    - ``lock(claim, owner, key)``, an exclusive held-to-commit lock.  A
      contended one gives up the CPU first (the context switch the
      paper attributes to data contention) and counts a lock wait.  Its
      wait models Oracle's sleep-retry latching: every 1 ms of a wait
      under 5 ms costs one more wake-check-sleep context switch and its
      kernel instructions (what makes the 10-warehouse contention point
      so switch-heavy, Figure 8); a longer wait parks on a semaphore and
      wakes once;
    - ``commit(claim, owner, redo_bytes)``: append redo, block, wait for
      the log writer's group commit (the wait booked in the redo log's
      ``commit_wait``), re-acquire a CPU, release the locks and count
      the transaction.

    ``abort(owner)`` releases everything without committing: the
    healthy ODB mix never aborts, and fault injection
    (:class:`repro.faults.TransientAborts`) turns transactions into
    transient victims at commit time.  ``client(...)`` is a client's
    whole loop as one operation (:func:`repro.odb.client.client_process`).
    ``scheduler``, ``disks``, ``lock_table``, ``redo`` and the counters
    ``transactions``, ``aborted``, ``physical_reads`` and
    ``lock_wait_switches`` live on the compiled base.
    """

    def __init__(self, engine: Engine, scheduler: Scheduler, disks: DiskArray,
                 buffer_cache: BufferCache, lock_table: LockTable,
                 redo: RedoLog, dbwriter: DbWriter):
        super().__init__(scheduler, disks, buffer_cache,
                         address(buffer_cache.c), dbwriter.enqueue,
                         lock_table, redo)
        self.engine = engine
        self.buffer_cache = buffer_cache
        self.dbwriter = dbwriter
