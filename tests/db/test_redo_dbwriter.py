"""Tests for the redo log / log writer and the database writer."""

import pytest

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.redo import RedoLog, log_writer_process
from repro.hw.machine import DiskConfig
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.randomness import RandomStreams

from tests.db.reference_lru import dirty_units, touch_write


def make_world(processors=2):
    engine = Engine()
    scheduler = Scheduler(engine, processors, 1e9)
    disks = DiskArray(engine,
                      DiskConfig(count=4, service_time_s=0.004,
                                 service_time_cv=0.0),
                      RandomStreams(5), log_disks=1)
    return engine, scheduler, disks


class TestRedoLog:
    def test_append_assigns_sequences(self):
        redo = RedoLog(Engine())
        assert redo.append() == 1
        assert redo.append() == 2
        assert redo.pending_sequence - redo.flushed_sequence == 2

    def test_bytes_accounting_default_and_custom(self):
        redo = RedoLog(Engine(), bytes_per_txn=6144)
        redo.append()
        redo.append(redo_bytes=1000)
        assert redo.bytes_written.count == 7144

    def test_validation(self):
        with pytest.raises(ValueError):
            RedoLog(Engine(), bytes_per_txn=0)

    def test_group_commit_wakes_all_covered(self):
        engine = Engine()
        redo = RedoLog(engine)
        woken = []

        def txn(name):
            sequence = redo.append()
            yield from redo.wait_for_flush(sequence)
            woken.append((engine.now, name))

        engine.process(txn("a"))
        engine.process(txn("b"))

        def flusher():
            yield engine.timeout(2.0)
            redo.mark_flushed(redo.pending_sequence, group=2)

        engine.process(flusher())
        engine.run()
        assert [name for _, name in woken] == ["a", "b"]
        assert all(t == 2.0 for t, _ in woken)
        assert redo.group_size.mean == pytest.approx(2.0)
        assert redo.commit_wait.mean == pytest.approx(2.0)

    def test_log_writer_flushes_and_advances(self):
        engine, scheduler, disks = make_world()
        redo = RedoLog(engine)
        engine.process(log_writer_process(engine, redo, disks, scheduler,
                                          poll_interval_s=0.001))
        committed = []

        def txn():
            sequence = redo.append()
            yield from redo.wait_for_flush(sequence)
            committed.append(engine.now)

        engine.process(txn())
        engine.run(until=1.0)
        assert committed and committed[0] < 0.1
        assert disks.log_writes.count >= 1
        assert redo.flushes.count >= 1
        # The flush path charged kernel instructions.
        assert scheduler.os_instructions.count >= scheduler.costs.log_flush

    def test_log_writer_groups_concurrent_commits(self):
        engine, scheduler, disks = make_world()
        redo = RedoLog(engine)
        engine.process(log_writer_process(engine, redo, disks, scheduler,
                                          poll_interval_s=0.0005))
        done = []

        def txn(delay):
            yield engine.timeout(delay)
            sequence = redo.append()
            yield from redo.wait_for_flush(sequence)
            done.append(engine.now)

        # Ten commits arriving while the first flush is in flight.
        for i in range(10):
            engine.process(txn(delay=i * 0.00001))
        engine.run(until=1.0)
        assert len(done) == 10
        # Far fewer flushes than transactions: group commit worked.
        assert redo.flushes.count < 10


class TestDbWriter:
    def test_batched_writes_reach_disk(self):
        engine, scheduler, disks = make_world()
        writer = DbWriter(engine, disks, scheduler, batch_size=4)
        engine.process(writer.process())
        for block in range(8):
            writer.enqueue(block)
        engine.run(until=1.0)
        assert writer.written.count == 8
        assert disks.writes.count == 8
        assert writer.enqueued.count == writer.written.count

    def test_batch_size_validation(self):
        engine, scheduler, disks = make_world()
        with pytest.raises(ValueError):
            DbWriter(engine, disks, scheduler, batch_size=0)

    def test_writes_charge_kernel_instructions(self):
        engine, scheduler, disks = make_world()
        writer = DbWriter(engine, disks, scheduler)
        engine.process(writer.process())
        writer.enqueue(1)
        engine.run(until=1.0)
        assert scheduler.os_instructions.count >= scheduler.costs.write_submit

    def test_checkpoint_cleans_and_queues_dirty(self):
        engine, scheduler, disks = make_world()
        writer = DbWriter(engine, disks, scheduler)
        cache = BufferCache(16)
        for block in range(6):
            cache.install(block, dirty=(block % 2 == 0))
        engine.process(writer.process())
        engine.process(writer.checkpoint_process(cache, interval_s=0.01))
        engine.run(until=0.2)
        assert dirty_units(cache) == 0
        assert writer.written.count == 3  # blocks 0, 2, 4

    def test_checkpoint_rewrites_redirtied_hot_block(self):
        engine, scheduler, disks = make_world()
        writer = DbWriter(engine, disks, scheduler)
        cache = BufferCache(4)
        cache.install(0, dirty=True)

        def redirty():
            while True:
                yield engine.timeout(0.02)
                touch_write(cache, 0)

        engine.process(redirty())
        engine.process(writer.process())
        engine.process(writer.checkpoint_process(cache, interval_s=0.01))
        engine.run(until=0.5)
        # The same hot block is written repeatedly.
        assert writer.written.count >= 5

    def test_checkpoint_scans_the_cache_once_per_interval(self):
        class CountingCache(BufferCache):
            scans = 0

            def oldest_dirty(self, limit):
                self.scans += 1
                return super().oldest_dirty(limit)

        engine, scheduler, disks = make_world()
        writer = DbWriter(engine, disks, scheduler)
        cache = CountingCache(16)
        for block in range(6):
            cache.install(block, dirty=(block % 2 == 0))
        queued = []
        enqueue = writer.enqueue
        writer.enqueue = lambda block: (queued.append(block), enqueue(block))
        engine.process(writer.process())
        engine.process(writer.checkpoint_process(cache, interval_s=0.01,
                                                 max_per_interval=2))
        engine.run(until=0.035)  # checkpoints at 0.01, 0.02 and 0.03
        assert cache.scans == 3
        # Aged out at 0.02 (two per interval), the rest at 0.03.
        assert queued == [0, 2, 4]

    def test_checkpoint_validation(self):
        engine, scheduler, disks = make_world()
        writer = DbWriter(engine, disks, scheduler)
        cache = BufferCache(4)
        with pytest.raises(ValueError):
            next(writer.checkpoint_process(cache, interval_s=0))
        with pytest.raises(ValueError):
            next(writer.checkpoint_process(cache, max_per_interval=0))
