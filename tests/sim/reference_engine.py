"""The event kernel in Python, kept as the oracle for the compiled one.

This is :mod:`repro.sim.engine`, :mod:`repro.sim.process` and the
``Resource`` and ``Request`` of :mod:`repro.sim.resources` as they were
before the event queue, the dispatch loop, the events, process
resumption and the resource moved into ``repro/sim/_des.c``: unchanged
but for the per-``run()`` tracing and metrics, which the compiled kernel
keeps in Python, and the engine's resource list, which the compiled
engine's ``close()`` empties.  ``test_des_kernel.py`` drives random
schedules through both and requires the same traces and queue counters;
:func:`patched` points the program's ``Store`` at these events for
the oracle's side.
"""

from __future__ import annotations

import contextlib
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, Optional

from repro.sim import resources
from repro.sim.engine import NORMAL, URGENT, SimulationError
from repro.sim.stats import Counter


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
    """The simulation event loop and its event queue."""

    def __init__(self) -> None:
        # The resources built on the engine register here (the
        # compiled kernel's Engine.close drops their claims).
        self._resources: list = []
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

    # -- dispatch ----------------------------------------------------------

    def run(self, until: Optional[float] = None,
            stop: Optional[tuple] = None) -> None:
        """Run until the schedule drains, the clock passes ``until``, or
        the ``stop`` condition holds (see :meth:`repro.sim.engine.Engine.run`)."""
        if until is not None and until < self._now:
            raise ValueError(f"run(until={until}) is in the past (now={self._now})")
        self._dispatch(until, stop)

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


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Set the slots directly: every CPU and disk claim is one.
        self.engine = resource.engine
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info) -> None:
        self.resource.release(self)


class Resource:
    """A facility with ``capacity`` identical slots and a FIFO wait queue.

    Usage from a process::

        req = cpu.request()
        yield req
        ... hold the resource ...
        cpu.release(req)

    The resource records total busy slot-time (integral of in-use slots
    over time) so utilization can be computed as
    ``busy_time / (capacity * elapsed)``.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: Deque[Request] = deque()
        self._busy_time = 0.0
        self._last_change = engine.now
        #: Requests granted so far: each grant schedules one event.
        self.grants = 0
        engine._resources.append(self)

    # -- introspection -----------------------------------------------------

    def busy_time(self) -> float:
        """Integral of in-use slot count over time, up to now."""
        self._accrue()
        return self._busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean fraction of slots in use over ``elapsed`` (default: since t=0)."""
        if elapsed is None:
            elapsed = self.engine.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (self.capacity * elapsed)

    # -- operations --------------------------------------------------------

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        request = Request(self)
        users = self._users
        if len(users) < self.capacity:
            self._accrue()
            users.add(request)
            self.grants += 1
            request.succeed(request)
        else:
            self._queue.append(request)
        return request

    def release(self, request: Request) -> None:
        """Return a previously granted slot and wake the next waiter."""
        users = self._users
        if request in users:
            # One accrual covers the release and every grant it makes:
            # they all happen at this instant.
            self._accrue()
            users.discard(request)
            queue = self._queue
            while queue and len(users) < self.capacity:
                waiter = queue.popleft()
                users.add(waiter)
                self.grants += 1
                waiter.succeed(waiter)
        else:
            # Cancelling a queued request is allowed and is a no-op if the
            # request is unknown (idempotent release).
            try:
                self._queue.remove(request)
            except ValueError:
                pass

    def close(self) -> None:
        """Drop every claim, granted and queued (:meth:`Engine.close`):
        a claim refers to its resource, so a held or queued one is a
        cycle."""
        self._users.clear()
        self._queue.clear()

    def _accrue(self) -> None:
        now = self.engine._now
        self._busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now


class Process(Event):
    """A running simulation process; completes when its generator returns."""

    __slots__ = ("_generator", "_wake")

    def __init__(self, engine: Engine, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(engine)
        self._generator = generator
        # The resume callback, bound once: every wait appends it.
        self._wake = self._resume
        # Kick off the process at the current simulation time.
        bootstrap = Event(engine)
        bootstrap.add_callback(self._wake)
        bootstrap.succeed(None, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        # Every DES event that wakes a process lands here, so the common
        # case is straight-line: step the generator and wait on the
        # pending event it yields.  Anything else goes to _settle.
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._crash(exc)
            return
        if (isinstance(target, Event) and target is not self
                and not target._processed):
            target.callbacks.append(self._wake)
        else:
            self._settle(target)

    def _settle(self, target: Any) -> None:
        """The rare yields: a non-event or the process itself (thrown
        back into the generator as a :class:`SimulationError`), or an
        event already processed (resumes at once)."""
        while not isinstance(target, Event) or target is self:
            if target is self:
                error = SimulationError("process waited on itself")
            else:
                error = SimulationError(
                    f"process yielded a non-event: {target!r}")
            try:
                target = self._generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._crash(exc)
                return
        target.add_callback(self._wake)

    def _crash(self, exc: BaseException) -> None:
        if not self.callbacks:
            # Nobody is waiting on this process: surface the crash
            # instead of swallowing it.
            raise exc
        self.fail(exc)


@contextlib.contextmanager
def patched():
    """Make :mod:`repro.sim.resources`' ``Store`` build this module's
    events."""
    saved = resources.Event
    resources.Event = Event
    try:
        yield
    finally:
        resources.Event = saved
