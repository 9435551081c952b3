"""Statistics helpers for simulation outputs.

Two shapes of measurement recur throughout the system model:

- :class:`Counter` — monotonically increasing event counts (transactions
  committed, context switches, disk reads) with support for interval
  snapshots, which is what the EMON sampling layer consumes.
  ``Counter(name="")`` has a float ``count``; ``add(amount=1.0)``
  rejects negative and NaN amounts; ``snapshot()`` reads the count.
- :class:`Tally` — the running mean of discrete observations
  (latencies, group-commit sizes).  ``Tally(name="")`` folds each
  ``record(value)`` into ``mean`` by Welford's update
  (``delta = value - mean; mean += delta / n``) and counts ``n``.

Both are compiled, in the event kernel ``_des.c``, so the kernel's
compiled operations book into them directly, and the dispatch loop
reads a ``stop`` counter without a Python attribute lookup.
"""

from __future__ import annotations

from repro.sim.engine import _des

#: A named monotone event counter (compiled; see the module docstring).
Counter = _des.Counter
#: Streaming mean over discrete observations (compiled).
Tally = _des.Tally
