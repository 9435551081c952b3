"""The compiled client loop, lock, commit and gate against their Python oracle.

Random schedules run twice on the compiled event kernel: once through
the program's ``client_process``, whose whole loop is one compiled
operation, with its ``DatabaseEngine`` (compiled ``lock``,
``read_miss`` and ``commit``), ``LockTable`` and ``RedoLog`` with its
compiled ``Gate``, and once through ``tests/sim/reference_os.py``, the
Python they replaced.  Both sides share the program's planner, buffer
cache kernel, log writer, database writer and lock storms.  A schedule
picks the warehouses (one to three, so hot rows are contended), the
clients, CPUs and data disks, the CPU speed (short transactions make
lock waits under the 5 ms latch bound, with retries; long ones make
waits beyond it, without), the cache (a few units, so misses evict
dirty victims, or warm and large), the workload (phased or not), a log
stall (group commits grow behind it), transient aborts with a retry
policy (backoff or none, and abandonment when the attempts run out) and
a lock storm.  In some schedules an exception is thrown into a client
at a random resume, in the middle of a transaction; each ends with
``Engine.close()``, usually in the middle of transactions.  Both sides
must give the same ordered stream of every process's resumes and
yields, each with the clock and the engine's scheduled and pending
counts, and the same accumulators, lock holders, redo log, buffer cache
and writer queue after each stage, bit for bit.
"""

import gc
import types
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.engine import DatabaseEngine
from repro.db.locks import LockTable
from repro.db.redo import RedoLog, log_writer_process
from repro.faults import (FaultPlan, LockStorm, LogStall, RetryPolicy,
                          TransientAborts, lock_storm_process)
from repro.hw.machine import DiskConfig
from repro.odb.client import client_process
from repro.odb.popularity import steady_state_fill
from repro.odb.system import REMOTE_TOUCH_PROB, UNIT_BYTES
from repro.odb.transactions import _SegmentSampler
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.randomness import RandomStreams
from repro.sim.stats import Counter
from repro.workload import compile_workload, compiled_workload, \
    workload_by_name
from tests.db.reference_lru import snapshot
from tests.sim import reference_os

INTERRUPT = "interrupted"
#: Someone who never holds a lock: ``would_wait`` for it reads whether
#: anyone holds the key.
NOBODY = ("nobody",)


class _TimedLocks(reference_os.LockTable):
    """The oracle's lock table, noting how long each contended
    acquisition waited (it schedules nothing more)."""

    def __init__(self, engine):
        super().__init__(engine)
        self.waits = []

    def acquire(self, owner, key):
        started, contended = self.engine.now, self.would_wait(owner, key)
        yield from super().acquire(owner, key)
        if contended:
            self.waits.append(self.engine.now - started)


def _faults(aborts, storm, stall):
    """The fault plan of a schedule, or None."""
    if aborts is None and not storm and not stall:
        return None
    plan = {"seed": 9}
    if aborts is not None:
        probability, attempts, backoff = aborts
        plan["aborts"] = TransientAborts(probability)
        plan["retry"] = RetryPolicy(base_backoff_s=backoff,
                                    max_backoff_s=max(backoff, 0.004),
                                    max_attempts=attempts)
    if storm:
        plan["lock_storms"] = (LockStorm(start_s=0.003, duration_s=0.05,
                                         warehouses_per_burst=2,
                                         hold_s=0.004, interval_s=0.002),)
    if stall:
        plan["log_stalls"] = (LogStall(windows=((0.004, 0.012),)),)
    return FaultPlan(**plan)


def _build(oracle, schedule):
    """One world: the engine, the OS and database model, and the
    ``system`` a client reads."""
    (warehouses, clients, processors, data_disks, cv, user_spi, cache_units,
     warm, phased, aborts, storm, stall) = schedule
    engine = Engine()
    streams = RandomStreams(3)
    config = DiskConfig(count=data_disks + 2, service_time_s=0.004,
                        service_time_cv=cv)
    if oracle:
        scheduler = reference_os.Scheduler(engine, processors, 1e9)
        disks = reference_os.DiskArray(engine, config, streams)
        locks = _TimedLocks(engine)
        redo = reference_os.RedoLog(engine)
    else:
        scheduler = Scheduler(engine, processors, 1e9)
        disks = DiskArray(engine, config, streams)
        locks = LockTable(engine)
        redo = RedoLog(engine)
    scheduler.user_spi, scheduler.os_spi = user_spi, 2e-9
    workload = (compile_workload(workload_by_name("order-entry-burst"))
                if phased else compiled_workload(None))
    space = workload.build_block_space(warehouses, UNIT_BYTES)
    mix = workload.build_mix(clock=lambda: engine.now)
    cache = BufferCache(cache_units)
    if warm:
        steady_state_fill(cache, space, mix)
    dbwriter = DbWriter(engine, disks, scheduler)
    make = reference_os.DatabaseEngine if oracle else DatabaseEngine
    db = make(engine, scheduler, disks, cache, locks, redo, dbwriter)
    faults = _faults(aborts, storm, stall)
    system = types.SimpleNamespace(
        engine=engine, scheduler=scheduler, db=db, buffer_cache=cache,
        mix=mix, sampler=_SegmentSampler(space, warehouses,
                                         REMOTE_TOUCH_PROB),
        streams=streams, faults=faults,
        fault_streams=RandomStreams(faults.seed) if faults else None,
        retries=Counter("txn-retries"))
    keys = [(kind, w) for w in range(warehouses) for kind in ("wh", "dist")]
    return engine, scheduler, disks, cache, dbwriter, db, system, keys


def _state(engine, scheduler, disks, cache, dbwriter, db, system, keys):
    """Everything the transaction path books, read after a stage."""
    redo = db.redo
    return {
        "now": engine.now, "queue": engine.queue_stats(),
        "scheduler": (scheduler.bursts, scheduler.context_switches.count,
                      scheduler.user_instructions.count,
                      scheduler.os_instructions.count,
                      scheduler.user_busy_s, scheduler.os_busy_s,
                      scheduler.cpus.grants, scheduler.cpus.busy_time()),
        "disks": (disks.writes.count, disks.read_latency.n,
                  disks.read_latency.mean, disks.timeouts,
                  [(disk.grants, disk.busy_time())
                   for disk in list(disks._data_disks)
                   + list(disks._log_disks)]),
        "reads": db.physical_reads.count,
        "transactions": db.transactions.count,
        "aborted": db.aborted.count,
        "lock_waits": db.lock_wait_switches.count,
        "retries": system.retries.count,
        "redo": (redo.pending_sequence, float(redo.flushed_sequence),
                 redo.bytes_written.count, redo.flushes.count,
                 redo.commit_wait.n, redo.commit_wait.mean),
        "groups": (redo.group_size.n, redo.group_size.mean),
        "held": [db.lock_table.would_wait(NOBODY, key) for key in keys],
        "cache": list(snapshot(cache).items()),
        "evictions": (cache.c.dirty_evictions, cache.c.clean_evictions),
        "writer_queue": dbwriter._queue.size,
    }


def _watched(generator, ordinal, engine, stream, throw_at):
    """Run ``generator`` as its process would, recording every resume
    and yield; at its ``throw_at``-th resume throw an interrupt into it
    instead of the event's outcome, and end when it raises that."""
    value, error, resumes = None, None, 0
    while True:
        resumes += 1
        stream.append(("resume", ordinal, engine.now.hex(),
                       engine.queue_stats()["scheduled"], engine._pending))
        try:
            if resumes == throw_at:
                target = generator.throw(RuntimeError(INTERRUPT))
            elif error is None:
                target = generator.send(value)
            else:
                target = generator.throw(error)
        except StopIteration as stop:
            return stop.value
        except RuntimeError as exc:
            stream.append(("raised", ordinal, str(exc)))
            return None
        stream.append(("yield", ordinal, type(target).__name__,
                       target.triggered, engine.queue_stats()["scheduled"]))
        try:
            value, error = (yield target), None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:
            value, error = None, exc


def _simulate(oracle, schedule, interrupt, stops):
    world = _build(oracle, schedule)
    engine, scheduler, disks, cache, dbwriter, db, system, _keys = world
    warehouses, clients = schedule[:2]
    stream = []
    ordinals = iter(range(1_000))

    def start(generator, throw_at=0):
        engine.process(_watched(generator, next(ordinals), engine, stream,
                                throw_at))

    faults = system.faults
    start(log_writer_process(engine, db.redo, disks, scheduler,
                             stalls=faults.log_stalls if faults else ()))
    start(dbwriter.process())
    start(dbwriter.checkpoint_process(cache))
    for index, storm in enumerate(faults.lock_storms if faults else ()):
        start(lock_storm_process(engine, db.lock_table, storm, warehouses,
                                 system.fault_streams.stream(f"storm-{index}"),
                                 storm_index=index))
    victim, resume = interrupt
    client = reference_os.client_process if oracle else client_process
    for client_id in range(clients):
        start(client(system, client_id),
              throw_at=resume if client_id == victim else 0)
    states = []
    for until in stops:
        engine.run(until=until)
        states.append(_state(*world))
    engine.close()
    states.append(_state(*world))
    # The oracle's lock waits (the compiled side keeps none).
    waits = getattr(db.lock_table, "waits", None)
    return stream, states, waits, weakref.ref(engine)


_schedules = st.tuples(
    st.integers(1, 3),                          # warehouses
    st.integers(1, 6),                          # clients
    st.sampled_from([1, 2]),                    # processors
    st.sampled_from([1, 3]),                    # data disks
    st.sampled_from([0.0, 0.4]),                # disk service cv
    st.sampled_from([3e-10, 2e-9]),             # user seconds/instruction
    st.sampled_from([3, 24, 4096]),             # cache units
    st.booleans(),                              # warm cache
    st.booleans(),                              # phased mix
    st.one_of(st.none(), st.tuples(             # transient aborts
        st.sampled_from([0.3, 0.8]), st.sampled_from([1, 2, 4]),
        st.sampled_from([0.0, 0.002]))),
    st.booleans(),                              # lock storm
    st.booleans(),                              # log stall
)


def _compare(schedule, interrupt, stops):
    """Run both sides; the compiled side's closed engine must be freed
    by reference counting alone.  Returns the compiled side's results
    and the oracle's lock waits."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        *compiled, _waits, engine = _simulate(False, schedule, interrupt,
                                              stops)
        assert engine() is None
    finally:
        if enabled:
            gc.enable()
    *oracle, waits, _engine = _simulate(True, schedule, interrupt, stops)
    assert compiled == oracle
    return compiled, waits


@given(_schedules, st.tuples(st.integers(0, 6), st.integers(2, 200)),
       st.sampled_from([(0.002, 0.02), (0.01, 0.1), (0.05, 0.3)]))
@settings(max_examples=200, deadline=None)
def test_compiled_client_matches_the_python_oracle(schedule, interrupt,
                                                   stops):
    _compare(schedule, interrupt, stops)


def test_the_schedules_reach_every_path():
    # Two directed schedules, each matching the oracle.  Two hot
    # warehouses under fast CPUs, a warm cache, a storm, a stall and
    # aborts that retry or are abandoned: short lock waits (latch
    # retries), long ones (none) and group commits.
    busy = (2, 6, 2, 3, 0.4, 3e-10, 4096, True, False, (0.3, 2, 0.002),
            True, True)
    (_stream, states), waits = _compare(busy, (0, 0), (0.05, 0.3))
    measured = states[1]
    assert measured["transactions"] > 0 and measured["lock_waits"] > 0
    assert measured["aborted"] > measured["retries"] > 0
    assert measured["groups"][1] > 1
    assert any(0.001 <= wait < 0.005 for wait in waits)
    assert any(wait >= 0.005 for wait in waits)
    # One hot warehouse, slow CPUs, a three-unit cache and a phased mix:
    # reads, dirty victims, an interrupt in mid-transaction and a close
    # with events still pending.
    cold = (1, 4, 1, 1, 0.0, 2e-9, 3, False, True, None, False, False)
    (stream, states), _waits = _compare(cold, (1, 40), (0.05, 0.3))
    assert ("raised", 4, INTERRUPT) in stream          # client 1
    *_, measured, closed = states
    assert measured["reads"] > 0 and measured["evictions"][0] > 0
    assert measured["queue"]["pending"] > 0
    assert closed["queue"]["pending"] == 0
