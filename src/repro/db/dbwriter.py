"""The database writer (DBWR) background process.

Dirty blocks evicted from the buffer cache are queued here and written
back to disk asynchronously — "disk writes are typically non-critical
and are handled asynchronously by the OS" (Section 4.3) — so they cost
kernel instructions and disk bandwidth but do not block transactions.
"""

from __future__ import annotations

from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine, Store

#: Most blocks the writer submits in one batch.
BATCH_SIZE = 128
#: Simulated seconds between two incremental checkpoints.
CHECKPOINT_INTERVAL_S = 0.5
#: Most blocks one checkpoint writes out.
CHECKPOINT_MAX_BLOCKS = 256


class DbWriter:
    """Queue of dirty blocks plus the writer process."""

    def __init__(self, engine: Engine, disks: DiskArray, scheduler: Scheduler):
        self.engine = engine
        self.disks = disks
        self.scheduler = scheduler
        self._queue = Store(engine, name="dbwriter-queue")

    def enqueue(self, block_id: int) -> None:
        """Hand a dirty-evicted block to the writer (non-blocking)."""
        self._queue.put(block_id)

    def checkpoint_process(self, cache):
        """Age-based, rate-limited incremental checkpointing.

        A block is written when it has stayed dirty across two
        checkpoint intervals (``CHECKPOINT_INTERVAL_S``: it "aged out"),
        approximating Oracle's redo-age-driven incremental checkpoint at
        simulation timescale; the write-out rate is bounded per interval
        (``CHECKPOINT_MAX_BLOCKS``) as the real checkpoint's is by
        recovery targets.  Hot blocks re-dirtied every
        transaction are written at most once per interval — at small W
        those few hot blocks are the only data writes (traffic ≈ log
        only, Section 4.3).  The *growing* write flow at large W is
        dirty evictions, which reach the writer through the engine's
        eviction path, not through this process.
        """
        previously_dirty: set[int] = set()
        while True:
            yield self.engine.timeout(CHECKPOINT_INTERVAL_S)
            # One full-cache scan: nothing changes the cache before the
            # loop below cleans the blocks it writes.
            dirty = cache.oldest_dirty(cache.resident_units)
            currently_dirty = set(dirty)
            aged_out = currently_dirty & previously_dirty
            written = 0
            for block_id in dirty:
                if block_id not in aged_out:
                    continue
                cache.clean(block_id)
                self.enqueue(block_id)
                written += 1
                if written >= CHECKPOINT_MAX_BLOCKS:
                    break
            previously_dirty = currently_dirty

    def process(self):
        """The DBWR main loop: drain the queue in batches.

        Each batch costs one CPU acquisition for the submit path, then
        the blocks are written to their stripe disks concurrently (the
        writer waits for the batch to finish before the next, bounding
        its outstanding I/O as real DBWR does).
        """
        while True:
            first = yield self._queue.get()
            batch = [first]
            while self._queue.size > 0 and len(batch) < BATCH_SIZE:
                batch.append((yield self._queue.get()))
            claim = self.scheduler.acquire()
            yield claim
            yield from self.scheduler.execute_os(
                len(batch) * self.scheduler.costs.write_submit)
            self.scheduler.release(claim)
            writes = [self.engine.process(self.disks.write(block_id))
                      for block_id in batch]
            yield self.engine.all_of(writes)
