"""Redo log with a group-committing log writer.

Every transaction appends ~6 KB of redo (Section 4.3: "ODB, on average,
generates 6 KB of log data per transaction" — independent of W and P)
and must wait at commit until its redo is on stable storage.  The log
writer flushes the accumulated buffer in one sequential write per round,
so one flush typically covers several transactions (*group commit*): the
flush cost and latency are amortized, and the per-transaction log-flush
instruction share shrinks as load rises.
"""

from __future__ import annotations

from repro.faults import stall_wait_s
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.engine import _des
from repro.sim.stats import Counter, Tally


#: The log writer's idle sleep: at load it is continuously busy, so
#: commits wait at most one flush round.
POLL_INTERVAL_S = 0.0005


class RedoLog(_des.RedoLog):
    """The shared redo buffer and its flush gate.

    The commit side is compiled (``_des.RedoLog``), so the database
    engine's compiled commit appends and waits without Python:
    ``append(redo_bytes)`` takes the next commit sequence and books the
    bytes in ``bytes_written`` (a negative or NaN size raises
    :class:`ValueError`); ``pending_sequence`` is the highest sequence
    appended; ``commit_wait`` books each commit's wait on the flush gate
    ``_flushed``.  The log writer's side stays here.
    """

    def __init__(self, engine: Engine):
        self.flushes = Counter("log-flushes")
        self.group_size = Tally("group-commit-size")

    @property
    def flushed_sequence(self) -> float:
        """Highest redo sequence number durably flushed."""
        return self._flushed.level

    def mark_flushed(self, sequence: int, group: int) -> None:
        """Log-writer callback after a successful flush: opens the gate
        for every commit through ``sequence``."""
        self.flushes.count += 1
        if group > 0:
            self.group_size.record(group)
        self._flushed.advance(sequence)


def log_writer_process(engine: Engine, redo: RedoLog, disks: DiskArray,
                       scheduler: Scheduler, stalls: tuple = ()):
    """The LGWR background process.

    Loop: when un-flushed redo exists, charge the flush path
    (``KernelCosts.log_flush``) on a CPU, write the batch sequentially
    to a log disk, and open the commit gate for every covered
    transaction; otherwise sleep ``POLL_INTERVAL_S``.

    ``stalls`` is an optional tuple of :class:`repro.faults.LogStall`
    fault windows: while one is open the writer is wedged — no flush
    completes, commit waits balloon, and group-commit batches grow.
    """
    flush_instructions = scheduler.costs.log_flush
    while True:
        if stalls:
            wedged = stall_wait_s(stalls, engine.now)
            if wedged > 0:
                yield engine.timeout(wedged)
                continue
        target = redo.pending_sequence
        flushed = int(redo.flushed_sequence)
        if target <= flushed:
            yield engine.timeout(POLL_INTERVAL_S)
            continue
        claim = scheduler.acquire()
        yield claim
        yield from scheduler.execute_os(flush_instructions)
        scheduler.release(claim)
        yield from disks.log_append()
        redo.mark_flushed(target, group=target - flushed)
