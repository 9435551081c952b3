"""Contention primitives: resources, stores, and gates.

These model the shared facilities of the simulated system: CPUs and disks
are :class:`Resource` instances, queues of pending work are
:class:`Store` instances, and broadcast conditions (e.g. "the redo log has
been flushed up to sequence N") are :class:`Gate` instances.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Engine, Event, SimulationError


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

    def _accrue(self) -> None:
        now = self.engine._now
        self._busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``.

    ``put`` never blocks (the simulated queues we need — disk request
    queues, client work queues — are logically unbounded); ``get`` returns
    an event that fires with the next item.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    @property
    def size(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest blocked getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item."""
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class Gate:
    """A broadcast condition with a monotonically increasing level.

    Waiters ask to be woken once the gate's level reaches a threshold.
    This models group commit: transactions wait for "log flushed through
    sequence N" and a single flush wakes every transaction at or below the
    flushed sequence.
    """

    def __init__(self, engine: Engine, level: float = 0.0, name: str = ""):
        self.engine = engine
        self.name = name
        self._level = level
        self._waiters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        """Current gate level."""
        return self._level

    def wait_for(self, threshold: float) -> Event:
        """Event firing once ``level >= threshold`` (immediately if already)."""
        event = Event(self.engine)
        if self._level >= threshold:
            event.succeed(self._level)
        else:
            self._waiters.append((threshold, event))
        return event

    def advance(self, new_level: float) -> int:
        """Raise the level, waking satisfied waiters; returns wake count."""
        if new_level < self._level:
            raise SimulationError(
                f"gate level must not decrease ({self._level} -> {new_level})")
        self._level = new_level
        ready = [(t, e) for (t, e) in self._waiters if t <= new_level]
        if ready:
            self._waiters = [(t, e) for (t, e) in self._waiters if t > new_level]
            for _threshold, event in ready:
                event.succeed(new_level)
        return len(ready)
