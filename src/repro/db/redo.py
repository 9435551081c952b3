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
from repro.sim import Engine, Gate
from repro.sim.stats import Counter, Tally


class RedoLog:
    """The shared redo buffer and its flush gate."""

    def __init__(self, engine: Engine, bytes_per_txn: float = 6 * 1024):
        if bytes_per_txn <= 0:
            raise ValueError("bytes_per_txn must be positive")
        self.engine = engine
        self.bytes_per_txn = bytes_per_txn
        self._next_sequence = 0
        self._flushed = Gate(engine, level=0.0, name="redo-flushed")
        self.bytes_written = Counter("log-bytes")
        self.flushes = Counter("log-flushes")
        self.group_size = Tally("group-commit-size")
        self.commit_wait = Tally("commit-wait-time")

    @property
    def pending_sequence(self) -> int:
        """Highest sequence number appended so far."""
        return self._next_sequence

    @property
    def flushed_sequence(self) -> float:
        """Highest redo sequence number durably flushed."""
        return self._flushed.level

    def append(self, redo_bytes: float | None = None) -> int:
        """Append one transaction's redo; returns its commit sequence."""
        self._next_sequence += 1
        self.bytes_written.add(
            self.bytes_per_txn if redo_bytes is None else redo_bytes)
        return self._next_sequence

    def wait_for_flush(self, sequence: int):
        """Block until ``sequence`` is durable; yields the gate event."""
        started = self.engine._now
        yield self._flushed.wait_for(sequence)
        self.commit_wait.record(self.engine._now - started)

    def mark_flushed(self, sequence: int, group: int) -> None:
        """Log-writer callback after a successful flush."""
        self.flushes.count += 1
        if group > 0:
            self.group_size.record(group)
        self._flushed.advance(sequence)


def log_writer_process(engine: Engine, redo: RedoLog, disks: DiskArray,
                       scheduler: Scheduler, poll_interval_s: float = 0.0005,
                       flush_instructions: float | None = None,
                       stalls: tuple = ()):
    """The LGWR background process.

    Loop: when un-flushed redo exists, charge the flush path on a CPU,
    write the batch sequentially to a log disk, and open the commit gate
    for every covered transaction.  ``poll_interval_s`` is the idle
    sleep; at load the writer is continuously busy so commits wait at
    most one flush round.

    ``stalls`` is an optional tuple of :class:`repro.faults.LogStall`
    fault windows: while one is open the writer is wedged — no flush
    completes, commit waits balloon, and group-commit batches grow.
    """
    if flush_instructions is None:
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
            yield engine.timeout(poll_interval_s)
            continue
        claim = scheduler.acquire()
        yield claim
        yield from scheduler.execute_os(flush_instructions)
        scheduler.release(claim)
        yield from disks.log_append()
        redo.mark_flushed(target, group=target - flushed)
