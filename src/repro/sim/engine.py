"""Event loop, event queue and clock for the discrete-event simulation kernel.

The engine keeps ``(time, priority, sequence, event)`` entries in a
binary heap, so events dispatch in strict tuple order: by time, then
priority, then scheduling order.  Each :class:`Event` carries a list of
callbacks that fire when the event is processed;
:class:`~repro.sim.process.Process` resumption is just another callback.
The design mirrors simpy's core but is intentionally smaller: no
real-time support, no nested environments.

Cancellation is lazy: a :meth:`Event.cancel`-ed entry stays queued and
is skipped when it reaches the top, and when dead entries outnumber
live ones the heap is compacted in one pass.  This bounds the queue
under workloads that schedule and abandon many timeouts (lock-wait
deadlines, races between a completion and its timeout).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.sim.stats import Counter

#: Priority for events that must run before ordinary events at the same time
#: (used internally for process interrupts).
URGENT = 0
#: Default event priority.
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, running a dead engine...)."""


class Event:
    """A waitable, one-shot occurrence on the simulation timeline.

    An event has three observable states: *pending* (created, not yet
    triggered), *triggered* (queued on the engine with a value), and
    *processed* (callbacks have run).  Processes wait on events by
    yielding them.  A triggered event can be :meth:`cancel`-ed, which
    removes it from the timeline without processing (lazy: the engine
    skips it at pop time).
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered",
                 "_processed", "_dead")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._dead = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True once the event has been discarded via :meth:`cancel`."""
        return self._dead

    @property
    def ok(self) -> bool:
        """False when the event carries a failure (an exception value)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if not self._triggered:
            raise SimulationError("value read from an untriggered event")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self.engine._schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.engine._schedule(self, delay=0.0, priority=priority)
        return self

    def cancel(self) -> None:
        """Discard a triggered-but-unprocessed event from the timeline.

        The scheduled entry stays queued but is skipped (and eventually
        compacted away) by the engine — callbacks never run and the
        clock never advances for it.  Cancelling twice is a no-op;
        cancelling a processed event is an error, as is cancelling an
        event that was never scheduled.
        """
        if self._processed:
            raise SimulationError("cannot cancel a processed event")
        if not self._triggered:
            raise SimulationError("cannot cancel an untriggered event")
        if self._dead:
            return
        self._dead = True
        self.callbacks.clear()
        self.engine._note_dead()

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately, so late waiters are never lost.  Waiting on a
        cancelled event is an error: the callback could never fire.
        """
        if self._dead:
            raise SimulationError("cannot wait on a cancelled event")
        if self._processed:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._dead else
                 "processed" if self._processed else
                 "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._triggered = True
        self._value = value
        engine._schedule(self, delay=delay)


class _Condition(Event):
    """Base for AllOf/AnyOf: completes based on a set of child events."""

    __slots__ = ("events", "_completed")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self.events = list(events)
        self._completed = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._completed += 1
        if self._satisfied():
            self.succeed(self._result())

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _result(self) -> dict:
        # Only children whose callbacks have run count as completed;
        # Timeout events are "triggered" from creation, so the weaker
        # check would leak still-pending timeouts into the result.
        return {
            index: event.value
            for index, event in enumerate(self.events)
            if event.processed and event.ok
        }


class AllOf(_Condition):
    """Completes when every child event has completed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._completed == len(self.events)


class AnyOf(_Condition):
    """Completes when at least one child event has completed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._completed >= 1


#: Dead entries tolerated before a compaction pass is considered; below
#: this the bookkeeping cost outweighs the memory saved.
_COMPACT_MIN_DEAD = 64

_INF = float("inf")


#: The stop condition of a :meth:`Engine.run` without one: a counter
#: that never reaches its target.
_NO_STOP = (Counter("never"), _INF)


class Engine:
    """The simulation event loop and its event queue.

    >>> engine = Engine()
    >>> def proc(engine):
    ...     yield engine.timeout(5.0)
    ...     return engine.now
    >>> p = engine.process(proc(engine))
    >>> engine.run()
    >>> p.value
    5.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list = []
        self._sequence = 0
        self._dead = 0
        self.skipped_dead = 0
        self.compactions = 0
        self.max_depth = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Register a generator as a simulation process."""
        from repro.sim.process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event completing when all ``events`` complete."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event completing when any of ``events`` completes."""
        return AnyOf(self, events)

    # -- the event queue ---------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        self._sequence += 1
        heap = self._heap
        heappush(heap, (self._now + delay, priority, self._sequence, event))
        if len(heap) > self.max_depth:
            self.max_depth = len(heap)

    def _note_dead(self) -> None:
        """Record one cancellation; compacts when the dead dominate."""
        self._dead += 1
        if (self._dead >= _COMPACT_MIN_DEAD
                and self._dead * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop every dead entry in one pass.  In place, so a dispatch
        loop holding the heap keeps seeing the live one."""
        heap = self._heap
        queued = len(heap)
        heap[:] = [entry for entry in heap if not entry[3]._dead]
        heapify(heap)
        self.skipped_dead += queued - len(heap)
        self._dead = 0
        self.compactions += 1

    def _dispatched(self) -> int:
        return self._sequence - self.skipped_dead - len(self._heap)

    def queue_stats(self) -> dict:
        """Event-queue counters (published by :func:`publish_scheduler_metrics`).

        Once no cancelled entry is left queued, ``scheduled = dispatched
        + skipped_dead + pending``.  ``max_depth`` is the longest the
        heap has been, dead entries included.
        """
        return {
            "scheduled": self._sequence,
            "dispatched": self._dispatched(),
            "skipped_dead": self.skipped_dead,
            "pending": len(self._heap) - self._dead,
            "max_depth": self.max_depth,
            "compactions": self.compactions,
        }

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        heap = self._heap
        while heap and heap[0][3]._dead:
            heappop(heap)
            self._dead -= 1
            self.skipped_dead += 1
        return heap[0][0] if heap else _INF

    # -- dispatch ----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event."""
        self.peek()
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _priority, _seq, event = heappop(self._heap)
        self._now = when
        event._process()

    def run(self, until: Optional[float] = None,
            stop: Optional[tuple] = None) -> None:
        """Run until the schedule drains, the clock passes ``until``, or
        the ``stop`` condition holds.

        ``stop`` is a ``(counter, target)`` pair: the loop stops before
        the next event once ``counter.count >= target``.  Without it, a
        given ``until`` advances the clock to exactly ``until`` even if
        the last event fires earlier, so time-weighted statistics close
        their final interval consistently.  With it the clock stays at
        the last dispatched event, whichever limit ends the run.

        Tracing and metrics are checked once per call, never per event:
        the events a call retired are the change in :meth:`queue_stats`'
        ``dispatched`` across it.
        """
        if until is not None and until < self._now:
            raise ValueError(f"run(until={until}) is in the past (now={self._now})")
        if not (_tracing.ACTIVE or _metrics.ACTIVE):
            self._dispatch(until, stop)
            return
        started_at, dispatched = self._now, self._dispatched()
        with _tracing.span("des-event-loop") as span:
            self._dispatch(until, stop)
            events = self._dispatched() - dispatched
            if span is not None:
                span.count("events", events)
                span.count("sim_time_s", self._now - started_at)
        _metrics.inc("engine.runs")
        _metrics.inc("engine.events", events)
        _metrics.inc("engine.sim_time_s", self._now - started_at)

    def _dispatch(self, until: Optional[float], stop: Optional[tuple]) -> None:
        # The DES hot loop: every event of a simulation passes through
        # here, so the per-event work is one counter compare, one
        # deadline test, the heappop and the dead-entry skip.
        counter, target = stop or _NO_STOP
        limit = _INF if until is None else until
        heap = self._heap
        while counter.count < target and heap and heap[0][0] <= limit:
            when, _priority, _seq, event = heappop(heap)
            if event._dead:
                self._dead -= 1
                self.skipped_dead += 1
                continue
            self._now = when
            event._process()
        if until is not None and stop is None:
            self._now = until


def publish_scheduler_metrics(engine: Engine) -> None:
    """Publish an engine's queue counters into the active metrics registry.

    One ``scheduler.*`` counter per :meth:`Engine.queue_stats` field,
    ``max_depth`` as a gauge.  Counters are cumulative per engine, so
    this must be called once per engine lifetime — the DES phase
    boundary in :meth:`repro.odb.system.OdbSystem.run` — never per
    ``run()`` call.
    """
    if not _metrics.ACTIVE:
        return
    stats = engine.queue_stats()
    for field in ("scheduled", "dispatched", "skipped_dead", "compactions"):
        _metrics.inc(f"scheduler.{field}", stats[field])
    _metrics.gauge("scheduler.max_depth", stats["max_depth"])
