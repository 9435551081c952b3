"""Held-to-commit lock table with shared/exclusive modes.

Transactions take locks on hot rows (warehouse and district rows in the
ODB workload) and hold them until commit, as a real RDBMS does for
updated rows.  With few warehouses the same handful of rows is locked
by every concurrent transaction, so waiters pile up — each wait blocks
the server process and costs a context switch.  This is the paper's
"database block contention" at the 10-warehouse point (Figure 8).

Modes follow the usual compatibility matrix (S/S compatible, anything
with X incompatible) with FIFO fairness: a queued X blocks later S
requests, so writers cannot starve.  The ODB profiles use exclusive
locks only (updates); the shared mode is part of the engine surface for
workloads with reader/writer interplay.

Deadlock is avoided by ordered acquisition: callers acquire locks in a
fixed key order (the transaction profiles are written that way), which
the table asserts in a debug mode.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Literal

from repro.sim import Engine, Event
from repro.sim.stats import Counter, Tally

Mode = Literal["S", "X"]


class _RwLock:
    """One key's reader-writer lock with a FIFO waiter queue."""

    __slots__ = ("engine", "shared_holders", "exclusive_holder", "_queue")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.shared_holders: set[object] = set()
        self.exclusive_holder: object | None = None
        self._queue: deque[tuple[Mode, object, Event]] = deque()

    @property
    def held(self) -> bool:
        return bool(self.shared_holders) or self.exclusive_holder is not None

    def compatible(self, mode: Mode) -> bool:
        """Would an arriving request be granted immediately?

        FIFO fairness: nothing is granted past a non-empty queue.
        """
        if self._queue:
            return False
        if self.exclusive_holder is not None:
            return False
        if mode == "X":
            return not self.shared_holders
        return True

    def acquire(self, mode: Mode, owner: object) -> Event:
        event = Event(self.engine)
        if self.compatible(mode):
            self._grant(mode, owner)
            event.succeed(False)  # did not wait
        else:
            self._queue.append((mode, owner, event))
        return event

    def release(self, owner: object) -> None:
        if self.exclusive_holder is owner:
            self.exclusive_holder = None
        else:
            self.shared_holders.discard(owner)
        self._drain()

    def _grant(self, mode: Mode, owner: object) -> None:
        if mode == "X":
            self.exclusive_holder = owner
        else:
            self.shared_holders.add(owner)

    def _drain(self) -> None:
        while self._queue:
            mode, owner, event = self._queue[0]
            if self.exclusive_holder is not None:
                break
            if mode == "X" and self.shared_holders:
                break
            self._queue.popleft()
            self._grant(mode, owner)
            event.succeed(True)  # waited
            if mode == "X":
                break  # an exclusive grant ends the batch


class LockTable:
    """S/X locks keyed by arbitrary hashables, held to commit."""

    def __init__(self, engine: Engine, enforce_order: bool = False):
        self.engine = engine
        self.enforce_order = enforce_order
        self._locks: dict[Hashable, _RwLock] = {}
        self._held: dict[object, list[Hashable]] = {}
        self.acquisitions = Counter("lock-acquisitions")
        self.waits = Counter("lock-waits")
        self.wait_time = Tally("lock-wait-time")

    def _lock_for(self, key: Hashable) -> _RwLock:
        lock = self._locks.get(key)
        if lock is None:
            lock = _RwLock(self.engine)
            self._locks[key] = lock
        return lock

    def would_wait(self, owner: object, key: Hashable,
                   mode: Mode = "X") -> bool:
        """True when acquiring now would block (re-grants never block)."""
        if self.holds(owner, key):
            return False
        lock = self._locks.get(key)
        return lock is not None and not lock.compatible(mode)

    def acquire(self, owner: object, key: Hashable, mode: Mode = "X"):
        """Acquire ``key`` in ``mode`` for ``owner``; yields while queued.

        Returns True when the caller had to wait (a context switch
        happened at the OS level — the caller accounts for it).
        """
        if mode not in ("S", "X"):
            raise ValueError(f"mode must be 'S' or 'X', got {mode!r}")
        if self.enforce_order:
            held = self._held.get(owner, [])
            if held and repr(key) <= repr(held[-1]):
                raise RuntimeError(
                    f"lock order violation: {key!r} after {held[-1]!r}")
        lock = self._lock_for(key)
        started = self.engine._now
        waited = yield lock.acquire(mode, owner)
        self.acquisitions.count += 1
        if waited:
            self.waits.count += 1
            self.wait_time.record(self.engine._now - started)
        self._held.setdefault(owner, []).append(key)
        return waited

    def acquire_many(self, owner: object, keys, mode: Mode = "X"):
        """Acquire several keys in the given (fixed) order; yields while
        queued on each.  Returns the number of acquisitions that waited.

        Used by fault injection (``repro.faults`` lock storms) and any
        caller that takes a whole lock set up front: ordered acquisition
        keeps the no-deadlock invariant.
        """
        waits = 0
        for key in keys:
            waited = yield from self.acquire(owner, key, mode)
            if waited:
                waits += 1
        return waits

    def holds(self, owner: object, key: Hashable) -> bool:
        """True when ``owner`` currently holds ``key`` (either mode)."""
        lock = self._locks.get(key)
        if lock is None:
            return False
        return owner in lock.shared_holders or lock.exclusive_holder is owner

    def release_all(self, owner: object) -> int:
        """Commit/abort: drop every lock ``owner`` holds; returns count."""
        held = self._held.pop(owner, [])
        for key in held:
            self._locks[key].release(owner)
        return len(held)
