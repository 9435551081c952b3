"""Event loop, event queue and clock for the discrete-event simulation kernel.

The engine keeps ``(time, priority, sequence, event)`` entries in a
binary heap, so events dispatch in strict tuple order: by time, then
priority, then scheduling order.  Each :class:`Event` carries a list of
callbacks that fire when the event is processed;
:class:`~repro.sim.process.Process` resumption is just another callback.
The design mirrors simpy's core but is intentionally smaller: no
real-time support, no nested environments, and only the waits the
system model uses (timeouts, resource grants, store gets, gate levels,
all-of conditions).  Every queued event is dispatched.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.sim.stats import Counter

#: Priority for events that must run before ordinary events at the same time
#: (used for process start-up).
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
    yielding them.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_triggered",
                 "_processed")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

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
        self.engine._schedule(self, 0.0, priority)
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

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately, so late waiters are never lost.
        """
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
        state = ("processed" if self._processed else
                 "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        # The DES's most common event: the slots are set here directly
        # rather than through Event.__init__.  ``not delay >= 0`` also
        # rejects NaN, which would break the heap order.
        if not delay >= 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        engine._schedule(self, delay)


class AllOf(Event):
    """Completes when every child event has completed, with their values
    by index; fails with the first child failure."""

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
        if self._completed == len(self.events):
            self.succeed({index: event.value
                          for index, event in enumerate(self.events)})


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

    # -- the event queue ---------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        sequence = self._sequence = self._sequence + 1
        heap = self._heap
        heappush(heap, (self._now + delay, priority, sequence, event))
        if len(heap) > self.max_depth:
            self.max_depth = len(heap)

    def _dispatched(self) -> int:
        return self._sequence - len(self._heap)

    def queue_stats(self) -> dict:
        """Event-queue counters (published by :func:`publish_scheduler_metrics`).

        ``scheduled = dispatched + pending``.  ``max_depth`` is the
        longest the heap has been.
        """
        return {
            "scheduled": self._sequence,
            "dispatched": self._dispatched(),
            "pending": len(self._heap),
            "max_depth": self.max_depth,
        }

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    # -- dispatch ----------------------------------------------------------

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
        # deadline test and the heappop.
        counter, target = stop or _NO_STOP
        limit = _INF if until is None else until
        heap = self._heap
        while counter.count < target and heap and heap[0][0] <= limit:
            when, _priority, _seq, event = heappop(heap)
            self._now = when
            event._process()
        if until is not None and stop is None:
            self._now = until


def publish_scheduler_metrics(engine: Engine,
                              census: Optional[dict[str, int]] = None) -> None:
    """Publish an engine's queue counters into the active metrics registry.

    One ``scheduler.*`` counter per :meth:`Engine.queue_stats` field,
    ``max_depth`` as a gauge.  Counters are cumulative per engine, so
    this must be called once per engine lifetime — the DES phase
    boundary in :meth:`repro.odb.system.OdbSystem.run` — never per
    ``run()`` call.

    ``census`` maps event kinds to the number of events of that kind
    the model scheduled (counted where each kind is created, never in
    the dispatch loop); each becomes ``engine.events.<kind>``, and
    ``engine.events.other`` is the remainder, so the kinds sum to
    ``scheduler.scheduled``.
    """
    if not _metrics.ACTIVE:
        return
    stats = engine.queue_stats()
    for field in ("scheduled", "dispatched"):
        _metrics.inc(f"scheduler.{field}", stats[field])
    _metrics.gauge("scheduler.max_depth", stats["max_depth"])
    if census is not None:
        for kind, count in census.items():
            _metrics.inc(f"engine.events.{kind}", count)
        _metrics.inc("engine.events.other",
                     stats["scheduled"] - sum(census.values()))
