"""Event-queue equivalence properties.

The engine has two ways to drain its heap: the dispatch loop behind
``run()`` and the one-event ``step()``.  Randomized schedules must come
out of both in the same order, and that order must be the sorted
``(time, priority, insertion)`` drain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from tests.sim.test_engine import (
    _delays,
    _interrupts,
    _jobs,
    _queue,
    _random_schedule,
)


def _step_drain(engine):
    while engine.peek() != float("inf"):
        engine.step()


def _dispatch_trace(drain, jobs, interrupts):
    """Run one randomized schedule; the observable dispatch history."""
    engine = Engine()
    trace = _random_schedule(engine, jobs, interrupts)
    drain(engine)
    return trace, engine.now, engine.queue_stats()


@given(_jobs, _interrupts)
@settings(max_examples=60, deadline=None)
def test_schedulers_dispatch_identically(jobs, interrupts):
    run_trace, run_now, run_stats = _dispatch_trace(
        Engine.run, jobs, interrupts)
    step_trace, step_now, step_stats = _dispatch_trace(
        _step_drain, jobs, interrupts)
    assert step_trace == run_trace
    assert step_now == run_now
    # After a full drain the ledgers agree too: same events scheduled,
    # same events dispatched, nothing pending either way.
    for field in ("scheduled", "dispatched", "skipped_dead", "pending"):
        assert step_stats[field] == run_stats[field], field


@given(st.lists(st.tuples(_delays, st.sampled_from([0, 1])),
                min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_raw_schedulers_pop_in_same_order(entries):
    orders = []
    for drain in (Engine.run, _step_drain):
        engine = Engine()
        fired = []
        for index, (when, priority) in enumerate(entries):
            _queue(engine, when, priority, (when, priority, index), fired)
        drain(engine)
        orders.append(fired)
    run_order, step_order = orders
    assert step_order == run_order
    assert run_order == sorted(run_order)
    assert len(run_order) == len(entries)
