"""Held-to-commit exclusive lock table.

Transactions take locks on hot rows (warehouse and district rows in the
ODB workload) and hold them until commit, as a real RDBMS does for
updated rows.  With few warehouses the same handful of rows is locked
by every concurrent transaction, so waiters pile up — each wait blocks
the server process and costs a context switch.  This is the paper's
"database block contention" at the 10-warehouse point (Figure 8).

Every lock is exclusive (the ODB transactions only update their hot rows),
with one holder and a FIFO queue of waiters.  Deadlock is avoided by
ordered acquisition: callers acquire locks in a fixed key order —
``("wh", w)`` before ``("dist", w)``, warehouses ascending.

The table is compiled (``_des.LockTable`` in ``repro/sim/_des.c``,
DESIGN.md §11, "Compiled OS operations"), so the database engine's
compiled lock and commit take and release its locks directly.
``would_wait(owner, key)`` is true when someone other than ``owner``
holds ``key``; ``acquire(owner, key)`` is a compiled operation to
``yield from``: it waits on one event, already succeeded when nobody
holds the key (so an uncontended acquisition costs the same scheduled
event), else queued behind the key's earlier waiters, and the key
counts as held from the resume after the grant; the holder acquiring
its key again raises ``SimulationError``.  ``release_all(owner)``
(commit or abort) drops every lock ``owner`` holds, handing each to its
oldest waiter.
"""

from __future__ import annotations

from repro.sim.engine import _des


class LockTable(_des.LockTable):
    """Exclusive locks keyed by arbitrary hashables, held to commit."""

    __slots__ = ()

    def acquire_many(self, owner: object, keys):
        """Acquire several keys in the given (fixed) order; yields while
        queued on each.

        Used by fault injection (``repro.faults`` lock storms), which
        takes a whole lock set up front: ordered acquisition keeps the
        no-deadlock invariant.
        """
        for key in keys:
            yield from self.acquire(owner, key)
