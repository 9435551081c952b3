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

:class:`Gate` is compiled too: ``Gate(engine, level=0.0, name="")``
keeps a float ``level`` that only rises.  ``wait_for(threshold)``
returns an event that succeeds with the level once ``level >=
threshold`` (at once when it already is); ``advance(new_level)`` raises
the level, wakes the satisfied waiters in arrival order and returns how
many woke, and a lower level raises
:class:`~repro.sim.engine.SimulationError`.  This models group commit:
transactions wait for "log flushed through sequence N", and one flush
wakes every transaction at or below it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.engine import Engine, Event, _des

#: A facility with ``capacity`` identical slots and a FIFO wait queue
#: (compiled; see the module docstring).
Resource = _des.Resource
#: A pending or granted claim on a :class:`Resource` slot (compiled),
#: made by :meth:`Resource.request`.
Request = _des.Request
#: A broadcast condition with a rising level (compiled; see the module
#: docstring).
Gate = _des.Gate


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
