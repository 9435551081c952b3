"""Client / server process pairs.

In ODB a user process submits transactions and an Oracle server process
executes them (Figure 1).  At the fidelity of this model the pair
collapses into one simulation process per client that plans a
transaction, acquires a CPU, and walks the plan through the database
engine: lock, touch blocks (blocking on buffer misses), commit.  Each
plan is one call into the walk kernel, drawing from the client's own
kernel stream (:meth:`~repro.odb.transactions._SegmentSampler.draw`).

Clients run with zero think time — the paper controls CPU utilization
purely through the number of concurrent clients (Section 3.2.1).

Under fault injection (:mod:`repro.faults`) a transaction can abort
transiently at commit; the client rolls back, backs off with capped
exponential delay per the plan's :class:`~repro.faults.RetryPolicy`,
and re-executes the *same* plan.  Abort decisions draw from a fault
stream derived from the plan's seed, so the workload streams (mix,
block selection) are untouched and a faulted run stays comparable to
the healthy run over the same transaction sequence.
"""

from __future__ import annotations

from repro.hw.cwalk import lib


def client_process(system, client_id: int):
    """The per-client main loop; runs forever (the system bounds time)."""
    scheduler = system.scheduler
    engine = system.engine
    db = system.db
    lru_lookup = lib.lru_lookup
    lru = system.buffer_cache.c
    execute_user = scheduler.execute_user
    read_miss = db.read_miss
    mix = system.mix
    draw = system.sampler.draw
    stream = system.streams.kernel_stream(f"client-{client_id}")
    faults = system.faults
    abort_rng = None
    if faults is not None and faults.aborts is not None \
            and faults.aborts.probability > 0:
        abort_rng = system.fault_streams.stream(f"abort-{client_id}")
    sequence = 0
    while True:
        kind, warehouse, touches = draw(stream, mix.active())
        chunk = kind.chunk
        attempt = 0
        while True:
            attempt += 1
            owner = (client_id, sequence)
            sequence += 1
            claim = scheduler.acquire()
            yield claim
            # Hot-row locks first, in plan order (fixed order: no deadlock).
            for lock in kind.locks:
                claim = yield from db.lock(claim, owner, (lock, warehouse))
            # User work interleaved with block touches, each packed as
            # (block_id << 1) | write.  A buffer hit is one kernel call;
            # a miss is one compiled operation.
            for code in touches:
                yield from execute_user(chunk)
                if not lru_lookup(lru, code >> 1, code & 1):
                    claim = yield from read_miss(claim, code >> 1, code & 1)
            yield from execute_user(chunk)
            # Per-transaction kernel baseline (IPC with the client, timers).
            yield from scheduler.execute_os(scheduler.costs.base_per_txn)
            if abort_rng is not None and (
                    abort_rng.random()
                    < faults.aborts.probability * kind.abort_weight):
                # Transient abort: roll back (locks drop, work done so far
                # stays spent), give up the CPU, back off, and retry.
                db.abort(owner)
                yield from scheduler.block(claim)
                if attempt >= faults.retry.max_attempts:
                    break  # abandoned
                system.retries.add()
                backoff = faults.retry.backoff_s(attempt)
                if backoff > 0:
                    yield engine.timeout(backoff)
                continue
            claim = yield from db.commit(claim, owner,
                                         kind.profile.redo_bytes)
            scheduler.release(claim)
            break
