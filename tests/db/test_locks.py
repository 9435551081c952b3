"""Tests for the held-to-commit lock table."""

import pytest

from repro.db.locks import LockTable
from repro.sim import Engine


class TestLockTable:
    def test_uncontended_acquire_is_immediate(self):
        engine = Engine()
        locks = LockTable(engine)
        waited = []

        def proc():
            waited.append((yield from locks.acquire("t1", ("wh", 0))))

        engine.process(proc())
        engine.run()
        assert waited == [False]
        assert locks.acquisitions.count == 1
        assert locks.waits.count == 0

    def test_contended_acquire_waits_until_release(self):
        engine = Engine()
        locks = LockTable(engine)
        events = []

        def holder():
            yield from locks.acquire("t1", ("wh", 0))
            yield engine.timeout(5.0)
            locks.release_all("t1")

        def contender():
            yield engine.timeout(1.0)
            waited = yield from locks.acquire("t2", ("wh", 0))
            events.append((engine.now, waited))

        engine.process(holder())
        engine.process(contender())
        engine.run()
        assert events == [(5.0, True)]
        assert locks.waits.count == 1
        assert locks.wait_time.mean == pytest.approx(4.0)

    def test_different_keys_do_not_conflict(self):
        engine = Engine()
        locks = LockTable(engine)
        acquired_at = []

        def proc(owner, key):
            yield from locks.acquire(owner, key)
            acquired_at.append(engine.now)
            yield engine.timeout(3.0)
            locks.release_all(owner)

        engine.process(proc("t1", ("wh", 0)))
        engine.process(proc("t2", ("wh", 1)))
        engine.run()
        assert acquired_at == [0.0, 0.0]

    def test_release_all_drops_every_lock(self):
        engine = Engine()
        locks = LockTable(engine)

        def proc():
            yield from locks.acquire("t1", ("wh", 0))
            yield from locks.acquire("t1", ("dist", 0))
            assert locks.holds("t1", ("wh", 0))
            assert locks.holds("t1", ("dist", 0))
            assert locks.release_all("t1") == 2

        engine.process(proc())
        engine.run()
        assert not locks.holds("t1", ("wh", 0))
        assert not locks.holds("t1", ("dist", 0))

    def test_release_all_unknown_owner(self):
        locks = LockTable(Engine())
        assert locks.release_all("ghost") == 0

    def test_holds(self):
        engine = Engine()
        locks = LockTable(engine)

        def proc():
            yield from locks.acquire("t1", "k")
            assert locks.holds("t1", "k")
            assert not locks.holds("t2", "k")
            locks.release_all("t1")

        engine.process(proc())
        engine.run()
        assert not locks.holds("t1", "k")

    def test_fifo_grant_order(self):
        engine = Engine()
        locks = LockTable(engine)
        order = []

        def holder():
            yield from locks.acquire("t0", "k")
            yield engine.timeout(1.0)
            locks.release_all("t0")

        def contender(owner, delay):
            yield engine.timeout(delay)
            yield from locks.acquire(owner, "k")
            order.append(owner)
            locks.release_all(owner)

        engine.process(holder())
        engine.process(contender("a", 0.1))
        engine.process(contender("b", 0.2))
        engine.run()
        assert order == ["a", "b"]

    def test_waiting_count(self):
        engine = Engine()
        locks = LockTable(engine)

        def holder():
            yield from locks.acquire("t0", "k")
            yield engine.timeout(10.0)
            locks.release_all("t0")

        def contender(owner):
            yield from locks.acquire(owner, "k")
            locks.release_all(owner)

        engine.process(holder())
        engine.process(contender("a"))
        engine.process(contender("b"))
        engine.run(until=5.0)
        assert len(locks._locks["k"]._queue) == 2


class TestSharedExclusiveModes:
    def test_readers_share(self):
        engine = Engine()
        locks = LockTable(engine)
        acquired_at = []

        def reader(owner):
            yield from locks.acquire(owner, "k", mode="S")
            acquired_at.append(engine.now)
            yield engine.timeout(5.0)
            locks.release_all(owner)

        engine.process(reader("r1"))
        engine.process(reader("r2"))
        engine.run()
        assert acquired_at == [0.0, 0.0]  # concurrent grants

    def test_writer_excludes_readers(self):
        engine = Engine()
        locks = LockTable(engine)
        events = []

        def writer():
            yield from locks.acquire("w", "k", mode="X")
            yield engine.timeout(4.0)
            locks.release_all("w")

        def reader():
            yield engine.timeout(1.0)
            waited = yield from locks.acquire("r", "k", mode="S")
            events.append((engine.now, waited))
            locks.release_all("r")

        engine.process(writer())
        engine.process(reader())
        engine.run()
        assert events == [(4.0, True)]

    def test_writer_waits_for_all_readers(self):
        engine = Engine()
        locks = LockTable(engine)
        granted = []

        def reader(owner, hold):
            yield from locks.acquire(owner, "k", mode="S")
            yield engine.timeout(hold)
            locks.release_all(owner)

        def writer():
            yield engine.timeout(0.5)
            yield from locks.acquire("w", "k", mode="X")
            granted.append(engine.now)
            locks.release_all("w")

        engine.process(reader("r1", 2.0))
        engine.process(reader("r2", 6.0))
        engine.process(writer())
        engine.run()
        assert granted == [6.0]  # after the last reader

    def test_queued_writer_blocks_later_readers(self):
        engine = Engine()
        locks = LockTable(engine)
        order = []

        def reader(owner, arrival):
            yield engine.timeout(arrival)
            yield from locks.acquire(owner, "k", mode="S")
            order.append(owner)
            yield engine.timeout(1.0)
            locks.release_all(owner)

        def writer(arrival):
            yield engine.timeout(arrival)
            yield from locks.acquire("w", "k", mode="X")
            order.append("w")
            yield engine.timeout(1.0)
            locks.release_all("w")

        engine.process(reader("r1", 0.0))
        engine.process(writer(0.2))       # queues behind r1
        engine.process(reader("r2", 0.4))  # must NOT jump the writer
        engine.run()
        assert order == ["r1", "w", "r2"]

    def test_batch_of_readers_granted_together(self):
        engine = Engine()
        locks = LockTable(engine)
        granted = []

        def writer():
            yield from locks.acquire("w", "k", mode="X")
            yield engine.timeout(2.0)
            locks.release_all("w")

        def reader(owner):
            yield engine.timeout(0.5)
            yield from locks.acquire(owner, "k", mode="S")
            granted.append((engine.now, owner))
            locks.release_all(owner)

        engine.process(writer())
        engine.process(reader("r1"))
        engine.process(reader("r2"))
        engine.run()
        assert granted == [(2.0, "r1"), (2.0, "r2")]

    def test_would_wait(self):
        engine = Engine()
        locks = LockTable(engine)

        def holder():
            yield from locks.acquire("h", "k", mode="S")
            yield engine.timeout(3.0)
            locks.release_all("h")

        def probe():
            yield engine.timeout(1.0)
            assert not locks.would_wait("p", "k", mode="S")
            assert locks.would_wait("p", "k", mode="X")
            assert not locks.would_wait("h", "k")  # holders never wait

        engine.process(holder())
        engine.process(probe())
        engine.run()

    def test_invalid_mode(self):
        engine = Engine()
        locks = LockTable(engine)

        def proc():
            yield from locks.acquire("o", "k", mode="IX")

        engine.process(proc())
        with pytest.raises(ValueError):
            engine.run()

    def test_holds_covers_both_modes(self):
        engine = Engine()
        locks = LockTable(engine)

        def proc():
            yield from locks.acquire("o", "s-key", mode="S")
            yield from locks.acquire("o", "x-key", mode="X")
            assert locks.holds("o", "s-key")
            assert locks.holds("o", "x-key")
            locks.release_all("o")

        engine.process(proc())
        engine.run()
        assert not locks.holds("o", "s-key")
        assert not locks.holds("o", "x-key")
