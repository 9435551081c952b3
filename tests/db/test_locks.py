"""Tests for the held-to-commit lock table.

Waiting shows in simulated time and grant order: a waiter resumes when
the holder releases, and waiters are granted in arrival order.
"""

import pytest

from repro.db.locks import LockTable
from repro.sim import Engine, SimulationError

from tests.sim import reference_os


def holds(locks, owner, key) -> bool:
    """True when ``owner`` holds ``key``: anyone else would wait for
    it, and ``owner`` would not."""
    return (locks.would_wait(("not", owner), key)
            and not locks.would_wait(owner, key))


class TestLockTable:
    def test_uncontended_acquire_is_immediate(self):
        engine = Engine()
        locks = LockTable(engine)
        acquired_at = []

        def proc():
            yield from locks.acquire("t1", ("wh", 0))
            acquired_at.append(engine.now)

        engine.process(proc())
        engine.run()
        assert acquired_at == [0.0]
        assert holds(locks, "t1", ("wh", 0))
        # The grant is still one scheduled event, as the dispatch
        # digests pin it; the process's start and end are the others.
        assert engine.queue_stats()["scheduled"] == 3

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
            assert locks.would_wait("t2", ("wh", 0))
            yield from locks.acquire("t2", ("wh", 0))
            events.append((engine.now, holds(locks, "t2", ("wh", 0))))

        engine.process(holder())
        engine.process(contender())
        engine.run()
        assert events == [(5.0, True)]

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
            assert holds(locks, "t1", ("wh", 0))
            assert holds(locks, "t1", ("dist", 0))
            locks.release_all("t1")

        engine.process(proc())
        engine.run()
        assert not holds(locks, "t1", ("wh", 0))
        assert not holds(locks, "t1", ("dist", 0))
        assert not locks.would_wait("t2", ("wh", 0))

    def test_release_all_unknown_owner(self):
        locks = LockTable(Engine())
        locks.release_all("ghost")
        assert not locks.would_wait("ghost", "k")

    def test_holds(self):
        engine = Engine()
        locks = LockTable(engine)

        def proc():
            yield from locks.acquire("t1", "k")
            assert holds(locks, "t1", "k")
            assert not holds(locks, "t2", "k")
            locks.release_all("t1")

        engine.process(proc())
        engine.run()
        assert not holds(locks, "t1", "k")

    def test_would_wait(self):
        engine = Engine()
        locks = LockTable(engine)

        def holder():
            yield from locks.acquire("h", "k")
            yield engine.timeout(3.0)
            locks.release_all("h")

        def probe():
            yield engine.timeout(1.0)
            assert locks.would_wait("p", "k")
            assert not locks.would_wait("h", "k")  # holders never wait
            yield engine.timeout(3.0)
            assert not locks.would_wait("p", "k")

        assert not locks.would_wait("p", "k")  # nobody holds it yet
        engine.process(holder())
        engine.process(probe())
        engine.run()

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
        granted = []

        def holder():
            yield from locks.acquire("t0", "k")
            yield engine.timeout(10.0)
            locks.release_all("t0")

        def contender(owner):
            yield from locks.acquire(owner, "k")
            granted.append((engine.now, owner))
            yield engine.timeout(1.0)
            locks.release_all(owner)

        engine.process(holder())
        engine.process(contender("a"))
        engine.process(contender("b"))
        engine.run(until=5.0)
        assert granted == []  # both still queued behind the holder
        engine.run()
        # Each waiter holds the lock in turn, one after the other.
        assert granted == [(10.0, "a"), (11.0, "b")]

    def test_acquire_many_takes_the_keys_in_order(self):
        engine = Engine()
        locks = LockTable(engine)
        granted = []

        def holder():
            yield from locks.acquire("h", ("dist", 0))
            yield engine.timeout(2.0)
            locks.release_all("h")

        def many():
            yield from locks.acquire_many("m", [("wh", 0), ("dist", 0)])
            granted.append(engine.now)

        def late():
            yield engine.timeout(1.0)
            # ("wh", 0) is already taken by "m", queued on ("dist", 0).
            assert locks.would_wait("l", ("wh", 0))
            yield from locks.acquire("l", ("wh", 0))
            granted.append(engine.now)

        engine.process(holder())
        engine.process(many())
        engine.process(late())
        engine.run(until=3.0)
        assert granted == [2.0]
        assert holds(locks, "m", ("wh", 0)) and holds(locks, "m", ("dist", 0))
        locks.release_all("m")
        engine.run()
        assert granted == [2.0, 3.0]

    def test_holder_reacquire_raises(self):
        """A holder acquiring its own key again would queue behind
        itself and never be woken: it raises at the request, in the
        kernel and in the Python oracle alike, and leaves the table as
        it was."""
        for table in (LockTable, reference_os.LockTable):
            engine = Engine()
            locks = table(engine)
            raised = []

            def proc():
                yield from locks.acquire("t1", "k")
                with pytest.raises(SimulationError, match="holder"):
                    yield from locks.acquire("t1", "k")
                raised.append(table)
                assert holds(locks, "t1", "k")
                locks.release_all("t1")

            engine.process(proc())
            engine.run()
            assert raised == [table]
            assert not locks.would_wait("t2", "k")
