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
from repro.sim.stats import Counter


class DbWriter:
    """Queue of dirty blocks plus the writer process."""

    def __init__(self, engine: Engine, disks: DiskArray, scheduler: Scheduler,
                 batch_size: int = 128):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.engine = engine
        self.disks = disks
        self.scheduler = scheduler
        self.batch_size = batch_size
        self._queue = Store(engine, name="dbwriter-queue")
        self.enqueued = Counter("dbwriter-enqueued")
        self.written = Counter("dbwriter-written")

    def enqueue(self, block_id: int) -> None:
        """Hand a dirty-evicted block to the writer (non-blocking)."""
        self.enqueued.count += 1
        self._queue.put(block_id)

    def checkpoint_process(self, cache, interval_s: float = 0.5,
                           max_per_interval: int = 256):
        """Age-based, rate-limited incremental checkpointing.

        A block is written when it has stayed dirty across two
        checkpoint intervals (it "aged out"), approximating Oracle's
        redo-age-driven incremental checkpoint at simulation timescale;
        the write-out rate is bounded per interval as the real
        checkpoint's is by recovery targets.  Hot blocks re-dirtied every
        transaction are written at most once per interval — at small W
        those few hot blocks are the only data writes (traffic ≈ log
        only, Section 4.3).  The *growing* write flow at large W is
        dirty evictions, which reach the writer through the engine's
        eviction path, not through this process.
        """
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if max_per_interval < 1:
            raise ValueError("max_per_interval must be >= 1")
        previously_dirty: set[int] = set()
        while True:
            yield self.engine.timeout(interval_s)
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
                if written >= max_per_interval:
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
            while self._queue.size > 0 and len(batch) < self.batch_size:
                batch.append((yield self._queue.get()))
            claim = self.scheduler.acquire()
            yield claim
            yield from self.scheduler.execute_os(
                len(batch) * self.scheduler.costs.write_submit)
            self.scheduler.release(claim)
            writes = [self.engine.process(self._write_one(block_id))
                      for block_id in batch]
            yield self.engine.all_of(writes)

    def _write_one(self, block_id: int):
        yield from self.disks.write(block_id)
        self.written.count += 1
