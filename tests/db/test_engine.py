"""Tests for the database engine facade."""

import pytest

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.engine import DatabaseEngine, TransactionStats
from repro.db.locks import LockTable
from repro.db.redo import RedoLog, log_writer_process
from repro.hw.machine import DiskConfig
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.randomness import RandomStreams

from tests.db.reference_lru import dirty_units


def make_db(processors=2, cache_units=8, with_logwriter=True):
    engine = Engine()
    scheduler = Scheduler(engine, processors, 1e9)
    disks = DiskArray(engine,
                      DiskConfig(count=4, service_time_s=0.004,
                                 service_time_cv=0.0),
                      RandomStreams(7), log_disks=1)
    cache = BufferCache(cache_units)
    locks = LockTable(engine)
    redo = RedoLog(engine)
    dbwriter = DbWriter(engine, disks, scheduler)
    db = DatabaseEngine(engine, scheduler, disks, cache, locks, redo, dbwriter)
    engine.process(dbwriter.process())
    if with_logwriter:
        engine.process(log_writer_process(engine, redo, disks, scheduler,
                                          poll_interval_s=0.0005))
    return engine, scheduler, db


def _access(db, claim, block_id, write, stats):
    """One block access as ``client_process`` makes it: ``reference``,
    then ``read_miss`` on a miss.  Returns the CPU claim held after."""
    if not db.reference(block_id, write, stats):
        claim = yield from db.read_miss(claim, block_id, write, stats)
    return claim


class TestAccessBlock:
    def test_hit_stays_on_cpu(self):
        engine, scheduler, db = make_db()
        db.buffer_cache.install(42)
        stats = TransactionStats()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 42, False, stats)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert stats.logical_reads == 1
        assert stats.physical_reads == 0
        assert scheduler.context_switches.count == 0

    def test_miss_reads_disk_and_switches(self):
        engine, scheduler, db = make_db()
        stats = TransactionStats()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 42, False, stats)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert stats.physical_reads == 1
        assert db.disks.reads.count == 1
        assert scheduler.context_switches.count == 1
        assert 42 in db.buffer_cache
        # I/O submit and completion kernel paths were charged.
        assert scheduler.os_instructions.count >= (
            scheduler.costs.io_submit + scheduler.costs.io_complete
            + scheduler.costs.context_switch)

    def test_write_miss_installs_dirty(self):
        engine, scheduler, db = make_db()
        stats = TransactionStats()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 42, True, stats)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert dirty_units(db.buffer_cache) == 1
        assert stats.blocks_dirtied == 1

    def test_dirty_eviction_reaches_dbwriter(self):
        engine, scheduler, db = make_db(cache_units=1)
        stats = TransactionStats()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 1, True, stats)
            claim = yield from _access(db, claim, 2, False, stats)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.dbwriter.written.count == 1


class TestLocking:
    def test_uncontended_lock_no_switch(self):
        engine, scheduler, db = make_db()
        stats = TransactionStats()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0), stats)
            db.lock_table.release_all("t1")
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert stats.lock_waits == 0
        assert scheduler.context_switches.count == 0

    def test_contended_lock_blocks_and_counts(self):
        engine, scheduler, db = make_db()
        stats = TransactionStats()

        def holder():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0),
                                       TransactionStats())
            scheduler.release(claim)
            yield engine.timeout(0.01)
            db.lock_table.release_all("t1")

        def contender():
            yield engine.timeout(0.001)
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t2", ("wh", 0), stats)
            db.lock_table.release_all("t2")
            scheduler.release(claim)

        engine.process(holder())
        engine.process(contender())
        engine.run(until=1.0)
        assert stats.lock_waits == 1
        assert db.lock_wait_switches.count == 1
        # ~9ms wait is beyond the latch regime: one blocking switch only.
        assert scheduler.context_switches.count == 1

    def test_short_wait_costs_latch_retries(self):
        engine, scheduler, db = make_db()
        stats = TransactionStats()

        def holder():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0),
                                       TransactionStats())
            scheduler.release(claim)
            yield engine.timeout(0.0025)
            db.lock_table.release_all("t1")

        def contender():
            yield engine.timeout(0.0001)
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t2", ("wh", 0), stats)
            db.lock_table.release_all("t2")
            scheduler.release(claim)

        engine.process(holder())
        engine.process(contender())
        engine.run(until=1.0)
        # Blocking switch plus ~2 latch sleep-retries.
        assert scheduler.context_switches.count >= 3


class TestCommit:
    def test_commit_waits_for_flush_and_releases_locks(self):
        engine, scheduler, db = make_db()
        stats = TransactionStats()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0), stats)
            claim = yield from db.commit(claim, "t1", stats)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert stats.committed
        assert db.transactions.count == 1
        assert not db.lock_table.holds("t1", ("wh", 0))
        assert db.redo.flushes.count >= 1

    def test_commit_custom_redo_bytes(self):
        engine, scheduler, db = make_db()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.commit(claim, "t1", TransactionStats(),
                                         redo_bytes=1234)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.redo.bytes_written.count == 1234

    def test_abort_releases_locks(self):
        engine, scheduler, db = make_db()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0),
                                       TransactionStats())
            db.abort("t1")
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert not db.lock_table.holds("t1", ("wh", 0))
        assert db.transactions.count == 0
