"""Tests for generator-based processes."""

import pytest

from repro.sim import Engine, SimulationError


def test_process_runs_and_returns_value():
    engine = Engine()

    def proc():
        yield engine.timeout(2.0)
        yield engine.timeout(3.0)
        return "done"

    p = engine.process(proc())
    engine.run()
    assert engine.now == 5.0
    assert p.value == "done"
    assert p.triggered


def test_timeout_value_is_delivered_to_process():
    engine = Engine()
    received = []

    def proc():
        value = yield engine.timeout(1.0, value="payload")
        received.append(value)

    engine.process(proc())
    engine.run()
    assert received == ["payload"]


def test_processes_interleave():
    engine = Engine()
    trace = []

    def proc(name, period, count):
        for _ in range(count):
            yield engine.timeout(period)
            trace.append((engine.now, name))

    engine.process(proc("fast", 1.0, 3))
    engine.process(proc("slow", 2.0, 2))
    engine.run()
    # At t=2.0 the slow process's timeout was scheduled earlier (t=0)
    # than the fast process's second timeout (t=1), so it fires first.
    assert trace == [
        (1.0, "fast"), (2.0, "slow"), (2.0, "fast"),
        (3.0, "fast"), (4.0, "slow"),
    ]


def test_process_waits_on_another_process():
    engine = Engine()

    def worker():
        yield engine.timeout(4.0)
        return 99

    def boss(worker_proc):
        result = yield worker_proc
        return result + 1

    worker_proc = engine.process(worker())
    boss_proc = engine.process(boss(worker_proc))
    engine.run()
    assert boss_proc.value == 100


def test_waiting_on_already_finished_process():
    engine = Engine()

    def worker():
        yield engine.timeout(1.0)
        return "early"

    def boss(worker_proc):
        yield engine.timeout(10.0)
        result = yield worker_proc
        return result

    worker_proc = engine.process(worker())
    boss_proc = engine.process(boss(worker_proc))
    engine.run()
    assert boss_proc.value == "early"


def test_yielding_non_event_raises_in_process():
    engine = Engine()
    caught = []

    def bad():
        try:
            yield 42
        except SimulationError as exc:
            caught.append(str(exc))

    engine.process(bad())
    engine.run()
    assert caught and "non-event" in caught[0]


def test_waiting_on_itself_raises_in_process():
    engine = Engine()
    caught = []

    def selfish():
        try:
            yield process
        except SimulationError as exc:
            caught.append(str(exc))

    process = engine.process(selfish())
    engine.run()
    assert caught == ["process waited on itself"]


def test_process_continues_after_a_rejected_yield():
    # The error for a bad yield is thrown into the generator; one that
    # catches it and then waits on a real event carries on normally.
    engine = Engine()
    trail = []

    def recovering():
        try:
            yield "not an event"
        except SimulationError:
            trail.append(("caught", engine.now))
        yield engine.timeout(2.0)
        trail.append(("woke", engine.now))
        return "done"

    process = engine.process(recovering())
    engine.run()
    assert trail == [("caught", 0.0), ("woke", 2.0)]
    assert process.value == "done"


def test_unhandled_process_exception_propagates():
    engine = Engine()

    def crasher():
        yield engine.timeout(1.0)
        raise ValueError("crash")

    engine.process(crasher())
    with pytest.raises(ValueError, match="crash"):
        engine.run()


def test_watched_process_failure_delivered_to_waiter():
    engine = Engine()
    caught = []

    def crasher():
        yield engine.timeout(1.0)
        raise ValueError("crash")

    def watcher(target):
        try:
            yield target
        except ValueError as exc:
            caught.append(str(exc))

    target = engine.process(crasher())
    engine.process(watcher(target))
    engine.run()
    assert caught == ["crash"]


def test_process_requires_generator():
    engine = Engine()
    with pytest.raises(TypeError):
        engine.process(lambda: None)
