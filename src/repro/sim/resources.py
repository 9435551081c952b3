"""Contention primitives: resources, stores, and gates.

These model the shared facilities of the simulated system: CPUs and disks
are :class:`Resource` instances, queues of pending work are
:class:`Store` instances, and broadcast conditions (e.g. "the redo log has
been flushed up to sequence N") are :class:`Gate` instances.

:class:`Resource` and its :class:`Request` are compiled, beside the
events in ``_des.c``: ``Resource(engine, capacity=1, name="")`` has
``capacity`` identical slots and a FIFO wait queue.  Usage from a
process::

    req = cpu.request()
    yield req
    ... hold the resource ...
    cpu.release(req)

``with (yield cpu.request()):`` releases on leaving the block.
Releasing twice is a no-op, and releasing a queued claim cancels it.
The resource counts its ``grants`` (each schedules one event) and
records the busy slot-time, the integral of in-use slots over time, so
``utilization()`` is ``busy_time() / (capacity * elapsed)``.  It
registers with its engine, whose ``close()`` drops every claim.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import Engine, Event, SimulationError, _des

#: A facility with ``capacity`` identical slots and a FIFO wait queue
#: (compiled; see the module docstring).
Resource = _des.Resource
#: A pending or granted claim on a :class:`Resource` slot (compiled),
#: made by :meth:`Resource.request`.
Request = _des.Request


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
