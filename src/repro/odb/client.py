"""Client / server process pairs.

In ODB a user process submits transactions and an Oracle server process
executes them (Figure 1).  At the fidelity of this model the pair
collapses into one simulation process per client that plans a
transaction, acquires a CPU, and walks the plan through the database
engine: lock, touch blocks (blocking on buffer misses), commit.  Each
plan is one call into the walk kernel, drawing from the client's own
kernel stream (:meth:`~repro.odb.transactions._SegmentSampler.draw`).

The loop is compiled: :func:`client_process` returns one
``_des.Client`` operation (DESIGN.md §11, "Compiled OS operations")
that the engine runs as the client's process.  Per transaction it makes
one Python call, the plan draw; per attempt it takes a CPU, the plan's
hot-row locks in order (the database engine's lock), and per touch a
user burst and the buffer cache's kernel ``lru_lookup``, with the
engine's read after a miss when it misses; then the closing user burst
and the per-transaction kernel baseline (``base_per_txn``), and the
engine's commit.

Clients run with zero think time — the paper controls CPU utilization
purely through the number of concurrent clients (Section 3.2.1).

Under fault injection (:mod:`repro.faults`) a transaction can abort
transiently at commit; the client rolls back, backs off with capped
exponential delay per the plan's :class:`~repro.faults.RetryPolicy`,
and re-executes the *same* plan.  Abort decisions draw from a fault
stream derived from the plan's seed, so the workload streams (mix,
block selection) are untouched and a faulted run stays comparable to
the healthy run over the same transaction sequence.  The abort draw
and the backoff are the loop's only other calls into Python, both on
that rare path.
"""

from __future__ import annotations


def client_process(system, client_id: int):
    """The per-client main loop, one compiled operation that runs
    forever (the system bounds time)."""
    draw, mix = system.sampler.draw, system.mix
    stream = system.streams.kernel_stream(f"client-{client_id}")
    faults = system.faults
    aborts = None
    if faults is not None and faults.aborts is not None \
            and faults.aborts.probability > 0:
        aborts = (system.fault_streams.stream(f"abort-{client_id}").random,
                  faults.aborts.probability, faults.retry.max_attempts,
                  faults.retry.backoff_s, system.retries)
    return system.db.client(client_id, lambda: draw(stream, mix.active()),
                            aborts)
