"""Tests for the database engine facade."""

import pytest

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.engine import DatabaseEngine
from repro.db.locks import LockTable
from repro.db.redo import RedoLog, log_writer_process
from repro.hw.machine import DiskConfig
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.randomness import RandomStreams

from tests.db.reference_lru import (
    contains, dirty_units, install, lookup, touch_write)


def make_db(processors=2, cache_units=8, with_logwriter=True):
    engine = Engine()
    scheduler = Scheduler(engine, processors, 1e9)
    disks = DiskArray(engine,
                      DiskConfig(count=5, service_time_s=0.004,
                                 service_time_cv=0.0),
                      RandomStreams(7))
    cache = BufferCache(cache_units)
    locks = LockTable(engine)
    redo = RedoLog(engine)
    dbwriter = DbWriter(engine, disks, scheduler)
    db = DatabaseEngine(engine, scheduler, disks, cache, locks, redo, dbwriter)
    engine.process(dbwriter.process())
    if with_logwriter:
        engine.process(log_writer_process(engine, redo, disks, scheduler))
    return engine, scheduler, db


def _access(db, claim, block_id, write):
    """One block access as ``client_process`` makes it: the kernel's
    ``lru_lookup``, then ``read_miss`` on a miss.  Returns the CPU claim
    held after."""
    hit = (touch_write if write else lookup)(db.buffer_cache, block_id)
    if not hit:
        claim = yield from db.read_miss(claim, block_id, write)
    return claim


def _data_disk_requests(db) -> int:
    """Requests the data disks have granted."""
    return sum(disk.grants for disk in db.disks._data_disks)


class TestAccessBlock:
    def test_hit_stays_on_cpu(self):
        engine, scheduler, db = make_db()
        install(db.buffer_cache, 42)

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 42, False)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.buffer_cache.hits == 1
        assert db.physical_reads.count == 0
        assert _data_disk_requests(db) == 0
        assert scheduler.context_switches.count == 0

    def test_miss_reads_disk_and_switches(self):
        engine, scheduler, db = make_db()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 42, False)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.physical_reads.count == 1
        assert _data_disk_requests(db) == 1
        assert scheduler.context_switches.count == 1
        assert contains(db.buffer_cache, 42)
        # I/O submit and completion kernel paths were charged.
        assert scheduler.os_instructions.count >= (
            scheduler.costs.io_submit + scheduler.costs.io_complete
            + scheduler.costs.context_switch)

    def test_write_miss_installs_dirty(self):
        engine, scheduler, db = make_db()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 42, True)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert dirty_units(db.buffer_cache) == 1

    def test_dirty_eviction_reaches_dbwriter(self):
        engine, scheduler, db = make_db(cache_units=1)

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from _access(db, claim, 1, True)
            claim = yield from _access(db, claim, 2, False)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.disks.writes.count == 1


class TestLocking:
    def test_uncontended_lock_no_switch(self):
        engine, scheduler, db = make_db()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0))
            db.lock_table.release_all("t1")
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.lock_wait_switches.count == 0
        assert scheduler.context_switches.count == 0

    def test_contended_lock_blocks_and_counts(self):
        engine, scheduler, db = make_db()

        def holder():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0))
            scheduler.release(claim)
            yield engine.timeout(0.01)
            db.lock_table.release_all("t1")

        def contender():
            yield engine.timeout(0.001)
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t2", ("wh", 0))
            db.lock_table.release_all("t2")
            scheduler.release(claim)

        engine.process(holder())
        engine.process(contender())
        engine.run(until=1.0)
        assert db.lock_wait_switches.count == 1
        # ~9ms wait is beyond the latch regime: one blocking switch only.
        assert scheduler.context_switches.count == 1

    def test_short_wait_costs_latch_retries(self):
        engine, scheduler, db = make_db()

        def holder():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0))
            scheduler.release(claim)
            yield engine.timeout(0.0025)
            db.lock_table.release_all("t1")

        def contender():
            yield engine.timeout(0.0001)
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t2", ("wh", 0))
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

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0))
            claim = yield from db.commit(claim, "t1", 6 * 1024)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.transactions.count == 1
        assert not db.lock_table.would_wait("t2", ("wh", 0))
        assert db.redo.flushes.count >= 1

    def test_commit_custom_redo_bytes(self):
        engine, scheduler, db = make_db()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.commit(claim, "t1", 1234)
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert db.redo.bytes_written.count == 1234

    def test_abort_releases_locks(self):
        engine, scheduler, db = make_db()

        def proc():
            claim = scheduler.acquire()
            yield claim
            claim = yield from db.lock(claim, "t1", ("wh", 0))
            db.abort("t1")
            scheduler.release(claim)

        engine.process(proc())
        engine.run(until=1.0)
        assert not db.lock_table.would_wait("t2", ("wh", 0))
        assert db.transactions.count == 0
