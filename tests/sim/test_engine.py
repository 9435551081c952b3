"""Tests for the DES engine: clock, events, conditions, the event queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import disable_metrics, enable_metrics
from repro.obs.tracing import disable_tracing, enable_tracing
from repro.sim import AllOf, AnyOf, Engine, Interrupt, SimulationError
from repro.sim.engine import NORMAL, URGENT
from repro.sim.stats import Counter


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    engine = Engine()
    engine.timeout(3.5)
    engine.run()
    assert engine.now == 3.5


def test_timeouts_fire_in_order():
    engine = Engine()
    fired = []
    for delay in (5.0, 1.0, 3.0):
        engine.timeout(delay).add_callback(lambda e, d=delay: fired.append(d))
    engine.run()
    assert fired == [1.0, 3.0, 5.0]


def test_ties_fire_in_creation_order():
    engine = Engine()
    fired = []
    for tag in ("a", "b", "c"):
        engine.timeout(1.0).add_callback(lambda e, t=tag: fired.append(t))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_negative_timeout_rejected():
    with pytest.raises(ValueError):
        Engine().timeout(-1.0)


def test_run_until_stops_early_and_pins_clock():
    engine = Engine()
    fired = []
    engine.timeout(1.0).add_callback(lambda e: fired.append(1))
    engine.timeout(10.0).add_callback(lambda e: fired.append(10))
    engine.run(until=5.0)
    assert fired == [1]
    assert engine.now == 5.0


def test_run_until_is_inclusive():
    # An event scheduled exactly at ``until`` fires in that run() call.
    engine = Engine()
    fired = []
    engine.timeout(5.0).add_callback(lambda e: fired.append(engine.now))
    engine.run(until=5.0)
    assert fired == [5.0]
    assert engine.now == 5.0


def test_run_until_resumes_across_calls():
    engine = Engine()
    fired = []
    for delay in (1.0, 4.0, 9.0):
        engine.timeout(delay).add_callback(lambda e: fired.append(engine.now))
    engine.run(until=2.0)
    assert fired == [1.0] and engine.now == 2.0
    engine.run(until=6.0)
    assert fired == [1.0, 4.0] and engine.now == 6.0
    engine.run()  # drain the rest
    assert fired == [1.0, 4.0, 9.0] and engine.now == 9.0


def test_run_until_now_is_a_noop():
    engine = Engine()
    engine.timeout(3.0)
    engine.run(until=2.0)
    engine.run(until=2.0)  # not "in the past": nothing fires, clock holds
    assert engine.now == 2.0
    assert engine.peek() == 3.0


def test_run_until_past_raises():
    engine = Engine()
    engine.timeout(2.0)
    engine.run()
    with pytest.raises(ValueError):
        engine.run(until=1.0)


def test_manual_event_succeed_value():
    engine = Engine()
    event = engine.event()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    event.succeed(42)
    engine.run()
    assert seen == [42]
    assert event.processed and event.ok


def test_event_double_trigger_rejected():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        _ = engine.event().value


def test_fail_requires_exception_instance():
    engine = Engine()
    with pytest.raises(TypeError):
        engine.event().fail("not an exception")


def test_late_callback_runs_immediately():
    engine = Engine()
    event = engine.event()
    event.succeed("x")
    engine.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_peek_reports_next_event_time():
    engine = Engine()
    assert engine.peek() == float("inf")
    engine.timeout(7.0)
    assert engine.peek() == 7.0


def test_step_on_empty_schedule_raises():
    with pytest.raises(SimulationError):
        Engine().step()


def test_all_of_waits_for_every_child():
    engine = Engine()
    children = [engine.timeout(d, value=d) for d in (1.0, 2.0, 3.0)]
    combined = AllOf(engine, children)
    done_at = []
    combined.add_callback(lambda e: done_at.append(engine.now))
    engine.run()
    assert done_at == [3.0]
    assert combined.value == {0: 1.0, 1: 2.0, 2: 3.0}


def test_any_of_fires_on_first_child():
    engine = Engine()
    children = [engine.timeout(d, value=d) for d in (4.0, 2.0)]
    combined = AnyOf(engine, children)
    done_at = []
    combined.add_callback(lambda e: done_at.append(engine.now))
    engine.run()
    assert done_at == [2.0]
    assert combined.value == {1: 2.0}


def test_all_of_empty_completes_immediately():
    engine = Engine()
    combined = AllOf(engine, [])
    assert combined.triggered
    assert combined.value == {}


def test_any_of_excludes_pending_pretriggered_timeouts():
    # Timeouts count as "triggered" from creation; the AnyOf result must
    # include only children whose callbacks actually ran, not every
    # child that merely sits on the schedule.
    engine = Engine()
    slow = engine.timeout(10.0, value="slow")
    fast = engine.timeout(1.0, value="fast")
    combined = AnyOf(engine, [slow, fast])
    engine.run(until=1.0)
    assert combined.processed
    assert slow.triggered and not slow.processed
    assert combined.value == {1: "fast"}


def test_all_of_accepts_already_processed_children():
    # A condition built over an event processed *before* construction
    # must count it (via the late-callback path) instead of hanging.
    engine = Engine()
    early = engine.timeout(1.0, value="early")
    engine.run()
    assert early.processed
    late = engine.timeout(2.0, value="late")
    combined = AllOf(engine, [early, late])
    engine.run()
    assert combined.processed
    assert combined.value == {0: "early", 1: "late"}


def test_condition_propagates_failure():
    engine = Engine()
    bad = engine.event()
    combined = AllOf(engine, [engine.timeout(1.0), bad])
    bad.fail(RuntimeError("boom"))
    engine.run()
    assert combined.triggered and not combined.ok
    assert isinstance(combined.value, RuntimeError)


def _queue(engine, when, priority, tag, fired):
    """A triggered event carrying ``tag``, queued at ``when``."""
    event = engine.event()
    event._triggered = True
    event._value = tag
    event.add_callback(lambda e: fired.append(e.value))
    engine._schedule(event, delay=when - engine.now, priority=priority)
    return event


class TestOrdering:
    def test_time_priority_sequence_order(self):
        engine = Engine()
        fired = []
        # Same time + priority → insertion order; lower priority first.
        _queue(engine, 2.0, NORMAL, "late", fired)
        _queue(engine, 1.0, NORMAL, "a", fired)
        _queue(engine, 1.0, NORMAL, "b", fired)
        _queue(engine, 1.0, URGENT, "urgent", fired)
        _queue(engine, 0.5, NORMAL, "first", fired)
        engine.run()
        assert fired == ["first", "urgent", "a", "b", "late"]

    def test_run_until_leaves_later_entries(self):
        engine = Engine()
        fired = []
        _queue(engine, 1.0, NORMAL, "due", fired)
        _queue(engine, 3.0, NORMAL, "later", fired)
        engine.run(until=2.0)
        assert fired == ["due"]
        assert engine.queue_stats()["pending"] == 1
        engine.run(until=3.0)
        assert fired == ["due", "later"]

    def test_peek_skips_dead_entries(self):
        engine = Engine()
        fired = []
        _queue(engine, 1.0, NORMAL, "dead", fired).cancel()
        _queue(engine, 2.0, NORMAL, "live", fired)
        assert engine.peek() == 2.0
        assert engine.queue_stats()["skipped_dead"] == 1
        engine.run()
        assert fired == ["live"]
        assert engine.peek() == float("inf")

    def test_step_skips_dead_entries(self):
        engine = Engine()
        fired = []
        _queue(engine, 1.0, NORMAL, "dead", fired).cancel()
        _queue(engine, 2.0, NORMAL, "live", fired)
        engine.step()
        assert fired == ["live"] and engine.now == 2.0
        with pytest.raises(SimulationError):
            engine.step()


class TestStopCondition:
    def test_stops_before_the_next_event_once_target_reached(self):
        engine = Engine()
        commits = Counter("commits")
        for delay in (1.0, 2.0, 3.0):
            engine.timeout(delay).add_callback(lambda e: commits.add())
        engine.run(10.0, stop=(commits, 2))
        assert commits.count == 2
        # The clock stays at the last dispatched event: not pinned to
        # ``until``, not advanced to the next event.
        assert engine.now == 2.0
        assert engine.peek() == 3.0

    def test_deadline_stop_leaves_clock_at_last_event(self):
        engine = Engine()
        commits = Counter("commits")
        for delay in (1.0, 4.0):
            engine.timeout(delay).add_callback(lambda e: commits.add())
        engine.run(2.5, stop=(commits, 5))
        assert commits.count == 1
        assert engine.now == 1.0

    def test_target_already_reached_dispatches_nothing(self):
        engine = Engine()
        commits = Counter("commits")
        engine.timeout(1.0)
        engine.run(stop=(commits, 0))
        assert engine.now == 0.0
        assert engine.queue_stats()["dispatched"] == 0


class TestLazyCancellation:
    def test_10k_cancelled_timeouts_bounded_queue(self):
        engine = Engine()
        survivor = engine.timeout(20_000.0, value="done")
        for t in [engine.timeout(100.0 + i) for i in range(10_000)]:
            t.cancel()
        # Compaction must keep the dead from accumulating: without it the
        # queue would sit at 10_001 entries until their deadlines pop.
        stats = engine.queue_stats()
        assert stats["pending"] == 1
        assert stats["compactions"] >= 5
        assert stats["skipped_dead"] + engine._dead == 10_000
        assert len(engine._heap) <= 200
        engine.run()
        assert engine.now == 20_000.0
        assert survivor.processed
        final = engine.queue_stats()
        assert final["skipped_dead"] == 10_000
        assert final["pending"] == 0
        assert final["dispatched"] == 1

    def test_compaction_during_a_run_keeps_dispatching(self):
        engine = Engine()
        fired = []
        doomed = [engine.timeout(50.0 + i) for i in range(200)]

        def cancel_all(event):
            for t in doomed:
                t.cancel()
            engine.timeout(1.0).add_callback(lambda e: fired.append(engine.now))

        engine.timeout(1.0).add_callback(cancel_all)
        engine.timeout(5.0).add_callback(lambda e: fired.append(engine.now))
        engine.run()
        assert engine.queue_stats()["compactions"] >= 1
        assert fired == [2.0, 5.0]

    def test_cancelled_timeout_never_fires(self):
        engine = Engine()
        fired = []
        t = engine.timeout(5.0)
        t.add_callback(fired.append)
        t.cancel()
        engine.run()
        assert not fired
        assert engine.now == 0.0       # clock never advanced for it
        assert t.cancelled

    def test_cancel_is_idempotent(self):
        engine = Engine()
        t = engine.timeout(1.0)
        t.cancel()
        t.cancel()
        assert engine.queue_stats()["pending"] == 0

    def test_cancel_untriggered_event_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="untriggered"):
            engine.event().cancel()

    def test_cancel_processed_event_rejected(self):
        engine = Engine()
        t = engine.timeout(1.0)
        engine.run()
        with pytest.raises(SimulationError, match="processed"):
            t.cancel()

    def test_waiting_on_cancelled_event_rejected(self):
        engine = Engine()
        t = engine.timeout(1.0)
        t.cancel()
        with pytest.raises(SimulationError, match="cancelled"):
            t.add_callback(lambda event: None)

    def test_interrupted_sleep_reclaims_its_timeout(self):
        engine = Engine()

        def sleeper():
            try:
                yield engine.timeout(1000.0)
            except Interrupt:
                pass

        def poker(victim):
            yield engine.timeout(1.0)
            victim.interrupt("wake")

        victim = engine.process(sleeper())
        engine.process(poker(victim))
        engine.run()
        # The orphaned 1000.0 timeout was cancelled, not carried: the
        # clock stops at the interrupt, and nothing stays queued.
        assert engine.now == 1.0
        assert engine.queue_stats()["pending"] == 0


# -- randomized schedules (property) -------------------------------------

#: Coarse delay grid so randomized schedules collide on timestamps often
#: (ties are where dispatch order is easiest to get wrong).
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
_jobs = st.lists(st.lists(_delays, min_size=1, max_size=5),
                 min_size=1, max_size=8)
_interrupts = st.lists(
    st.tuples(_delays, st.integers(min_value=0, max_value=7)),
    max_size=4)


class _CheckedEngine(Engine):
    """An engine that checks every dispatch against a sorted drain.

    Each scheduled entry's ``(time, priority, sequence)`` key is
    remembered; when its event is processed, the key must be the
    smallest among the live (uncancelled, unprocessed) entries, and
    the clock must read its time.
    """

    def __init__(self):
        super().__init__()
        self.queued = {}
        self.dispatched = []

    def _schedule(self, event, delay, priority=NORMAL):
        super()._schedule(event, delay, priority)
        key = (self._now + delay, priority, self._sequence)
        self.queued[key] = event
        event.callbacks.insert(0, lambda e: self._check(key))

    def _check(self, key):
        live = [k for k, event in self.queued.items() if not event.cancelled]
        assert key == min(live)
        assert self.now == key[0]
        del self.queued[key]
        self.dispatched.append(key)


def _random_schedule(engine, jobs, interrupts):
    """Sleepers plus an interrupting poker; returns the observable trace."""
    trace = []
    procs = []

    def sleeper(index, delays):
        for delay in delays:
            try:
                yield engine.timeout(delay)
                trace.append(("slept", engine.now, index))
            except Interrupt:
                trace.append(("interrupted", engine.now, index))

    for index, delays in enumerate(jobs):
        procs.append(engine.process(sleeper(index, delays)))

    def poker(pokes):
        for delay, victim_index in pokes:
            yield engine.timeout(delay)
            victim = procs[victim_index % len(procs)]
            if victim.is_alive:
                victim.interrupt("poke")
                trace.append(("poked", engine.now, victim_index))

    if interrupts:
        engine.process(poker(interrupts))
    return trace


@given(_jobs, _interrupts)
@settings(max_examples=60, deadline=None)
def test_dispatch_is_a_sorted_drain_and_the_ledger_balances(jobs, interrupts):
    engine = _CheckedEngine()
    _random_schedule(engine, jobs, interrupts)
    engine.run()
    stats = engine.queue_stats()
    assert stats["pending"] == 0
    assert all(event.cancelled for event in engine.queued.values())
    assert stats["dispatched"] == len(engine.dispatched)
    assert stats["skipped_dead"] == len(engine.queued)
    assert stats["scheduled"] == (stats["dispatched"] + stats["skipped_dead"]
                                  + stats["pending"])


@given(_jobs, _interrupts)
@settings(max_examples=30, deadline=None)
def test_observed_run_dispatches_like_a_plain_one(jobs, interrupts):
    plain = Engine()
    plain_trace = _random_schedule(plain, jobs, interrupts)
    plain.run()
    observed = Engine()
    observed_trace = _random_schedule(observed, jobs, interrupts)
    tracer = enable_tracing()
    registry = enable_metrics()
    try:
        observed.run()
    finally:
        disable_metrics()
        disable_tracing()
    assert observed_trace == plain_trace
    assert observed.now == plain.now
    dispatched = plain.queue_stats()["dispatched"]
    assert observed.queue_stats()["dispatched"] == dispatched
    span = tracer.find("des-event-loop")
    assert span.counters["events"] == dispatched
    assert span.counters["sim_time_s"] == plain.now
    assert registry.counters["engine.events"] == dispatched
    assert registry.counters["engine.runs"] == 1
