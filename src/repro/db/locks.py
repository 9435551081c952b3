"""Held-to-commit exclusive lock table.

Transactions take locks on hot rows (warehouse and district rows in the
ODB workload) and hold them until commit, as a real RDBMS does for
updated rows.  With few warehouses the same handful of rows is locked
by every concurrent transaction, so waiters pile up — each wait blocks
the server process and costs a context switch.  This is the paper's
"database block contention" at the 10-warehouse point (Figure 8).

Every lock is exclusive (the ODB profiles only update their hot rows),
with one holder and a FIFO queue of waiters.  Deadlock is avoided by
ordered acquisition: callers acquire locks in a fixed key order —
``("wh", w)`` before ``("dist", w)``, warehouses ascending.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.sim import Engine, Event


class LockTable:
    """Exclusive locks keyed by arbitrary hashables, held to commit."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: key -> its holder; a key nobody holds has no entry.
        self._holder: dict[Hashable, object] = {}
        #: key -> ``(owner, event)`` of each waiter, in arrival order.
        self._queue: dict[Hashable, deque[tuple[object, Event]]] = {}
        #: owner -> the keys it holds, in acquisition order.
        self._held: dict[object, list[Hashable]] = {}

    def would_wait(self, owner: object, key: Hashable) -> bool:
        """True when acquiring now would block (re-grants never block)."""
        holder = self._holder.get(key)
        return holder is not None and holder is not owner

    def acquire(self, owner: object, key: Hashable):
        """Acquire ``key`` for ``owner``; yields while queued.

        An uncontended acquisition still yields one already-succeeded
        event, so it costs the same scheduled event either way.
        """
        event = Event(self.engine)
        if key in self._holder:
            self._queue.setdefault(key, deque()).append((owner, event))
        else:
            self._holder[key] = owner
            event.succeed()
        yield event
        self._held.setdefault(owner, []).append(key)

    def acquire_many(self, owner: object, keys):
        """Acquire several keys in the given (fixed) order; yields while
        queued on each.

        Used by fault injection (``repro.faults`` lock storms), which
        takes a whole lock set up front: ordered acquisition keeps the
        no-deadlock invariant.
        """
        for key in keys:
            yield from self.acquire(owner, key)

    def release_all(self, owner: object) -> None:
        """Commit/abort: drop every lock ``owner`` holds, handing each
        to its oldest waiter."""
        for key in self._held.pop(owner, ()):
            queue = self._queue.get(key)
            if queue:
                self._holder[key], event = queue.popleft()
                event.succeed()
            else:
                del self._holder[key]
