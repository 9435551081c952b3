"""The compiled miss path against its Python oracle.

Random schedules run twice on the compiled event kernel: once through
the program's ``Scheduler``, ``DiskArray`` and ``DatabaseEngine``,
whose bursts, disk requests and ``read_miss`` are compiled operations,
and once through ``tests/sim/reference_os.py``, the Python they
replaced.  Each process runs a random script: user and kernel bursts
(zero, fractional, negative and NaN instruction counts), blocks with a
CPU re-acquire, buffer misses on a cache of a few units (so victims are
evicted, dirty ones to the database writer), disk reads, writes and log
appends, writes spawned as processes, and sleeps, on one or two CPUs
and one or two data disks.  Some schedules run under a disk fault
model (an outage window and a latency stretch); in some an exception
is thrown into a waiting process at a random resume; each ends with
``Engine.close()``, usually in the middle of operations.  Both must
give the same ordered stream of every process's resumes and yields,
each with the clock and the engine's scheduled and pending counts,
and the same accumulators, resources, buffer cache and writer queue
after each stage.
"""

import gc
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.buffer_cache import BufferCache
from repro.db.dbwriter import DbWriter
from repro.db.engine import DatabaseEngine
from repro.db.locks import LockTable
from repro.db.redo import RedoLog
from repro.faults import DiskDegradation, DiskFaultModel, FaultPlan
from repro.hw.cwalk import lib
from repro.hw.machine import DiskConfig
from repro.osmodel.disks import DiskArray
from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine
from repro.sim.randomness import RandomStreams
from tests.db.reference_lru import snapshot
from tests.sim import reference_os

INTERRUPT = "interrupted"
FAULTS = FaultPlan(disks=(
    DiskDegradation(disk=-1, latency_factor=1.5,
                    outages=((0.002, 0.004), (0.006, 0.0061))),))

_instructions = st.sampled_from([0, 0.0, 700, 2500.5, 40_000, -1.0,
                                 math.nan])
_op = st.one_of(
    st.tuples(st.just("user"), _instructions),
    st.tuples(st.just("os"), _instructions),
    st.tuples(st.just("miss"), st.integers(0, 9), st.booleans()),
    st.just(("block",)),
    st.tuples(st.just("read"), st.integers(0, 9)),
    st.tuples(st.just("write"), st.integers(0, 9)),
    st.just(("log",)),
    st.tuples(st.just("spawn_write"), st.integers(0, 9)),
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 0.0005, 0.003])),
)
_scripts = st.lists(st.lists(_op, max_size=8), min_size=1, max_size=6)


def _build(oracle, processors, data_disks, cv, faulted, cache_units):
    """One world: the engine, the scheduler, the disks, the buffer
    cache, the database writer and the database engine."""
    engine = Engine()
    config = DiskConfig(count=data_disks + 2, service_time_s=0.004,
                        service_time_cv=cv)
    if oracle:
        scheduler = reference_os.Scheduler(engine, processors, 1e9)
        disks = reference_os.DiskArray(engine, config, RandomStreams(5))
    else:
        scheduler = Scheduler(engine, processors, 1e9)
        disks = DiskArray(engine, config, RandomStreams(5))
    scheduler.user_spi, scheduler.os_spi = 3e-9, 2e-9
    cache = BufferCache(cache_units)
    dbwriter = DbWriter(engine, disks, scheduler)
    if oracle:
        db = reference_os.DatabaseEngine(
            engine, scheduler, disks, cache, reference_os.LockTable(engine),
            reference_os.RedoLog(engine), dbwriter)
    else:
        db = DatabaseEngine(engine, scheduler, disks, cache,
                            LockTable(engine), RedoLog(engine), dbwriter)
    if faulted:
        disks.fault_model = DiskFaultModel(FAULTS, disks.data_disk_count)
    return engine, scheduler, disks, cache, dbwriter, db


def _state(engine, scheduler, disks, cache, dbwriter, db):
    """Everything the operations book, read after a stage."""
    return (
        engine.now, engine.queue_stats(),
        scheduler.bursts, scheduler.context_switches.count,
        scheduler.user_instructions.count, scheduler.os_instructions.count,
        scheduler.user_busy_s, scheduler.os_busy_s,
        scheduler.cpus.grants, scheduler.cpus.busy_time(),
        disks.writes.count, disks.read_latency.n, disks.read_latency.mean,
        disks.timeouts,
        [(disk.grants, disk.busy_time())
         for disk in list(disks._data_disks) + list(disks._log_disks)],
        db.physical_reads.count,
        list(snapshot(cache).items()), cache.c.dirty_evictions,
        cache.c.clean_evictions, dbwriter._queue.size,
    )


def _watched(generator, ordinal, engine, stream, throw_at):
    """Run ``generator`` as its process would, recording every resume
    and yield; at its ``throw_at``-th resume throw an interrupt into it
    instead of the event's outcome, as a failed event would."""
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
        stream.append(("yield", ordinal, type(target).__name__,
                       target.triggered, engine.queue_stats()["scheduled"]))
        try:
            value, error = (yield target), None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:
            value, error = None, exc


def _simulate(oracle, scripts, processors, data_disks, cv, faulted,
              cache_units, interrupt, stops):
    world = _build(oracle, processors, data_disks, cv, faulted, cache_units)
    engine, scheduler, disks, cache, dbwriter, db = world
    stream, notes = [], []
    ordinals = iter(range(1_000))

    def start(generator, throw_at=0):
        ordinal = next(ordinals)
        return engine.process(_watched(generator, ordinal, engine, stream,
                                       throw_at))

    def script(pid, ops):
        claim = scheduler.acquire()
        try:
            yield claim
        except RuntimeError as exc:
            notes.append((engine.now, pid, "acquire", str(exc)))
        for op in ops:
            kind = op[0]
            try:
                if kind == "user":
                    yield from scheduler.execute_user(op[1])
                elif kind == "os":
                    yield from scheduler.execute_os(op[1])
                elif kind == "miss":
                    if not lib.lru_lookup(cache.c, op[1], op[2]):
                        claim = yield from db.read_miss(claim, op[1], op[2])
                elif kind == "block":
                    yield from scheduler.block(claim)
                    claim = scheduler.acquire()
                    yield claim
                elif kind == "read":
                    yield from disks.read(op[1])
                elif kind == "write":
                    yield from disks.write(op[1])
                elif kind == "log":
                    yield from disks.log_append()
                elif kind == "spawn_write":
                    start(disks.write(op[1]))
                elif kind == "sleep":
                    yield engine.timeout(op[1])
                notes.append((engine.now, pid, kind))
            except (ValueError, RuntimeError) as exc:
                notes.append((engine.now, pid, kind, type(exc).__name__,
                              str(exc)))
        scheduler.release(claim)
        return pid

    start(dbwriter.process())
    victim, resume = interrupt
    for pid, ops in enumerate(scripts):
        start(script(pid, ops), throw_at=resume if pid == victim else 0)
    states = []
    for until in stops:
        engine.run(until=until)
        states.append(_state(*world))
    engine.close()
    states.append(_state(*world))
    return stream, notes, states, weakref.ref(engine)


@given(_scripts, st.sampled_from([1, 2]), st.sampled_from([1, 2]),
       st.sampled_from([0.0, 0.4]), st.booleans(), st.sampled_from([2, 4]),
       st.tuples(st.integers(0, 5), st.integers(2, 12)),
       st.sampled_from([(0.001, 0.004), (0.003, 0.02), (0.05, 0.5)]))
@settings(max_examples=150, deadline=None)
def test_compiled_operations_match_the_python_oracle(
        scripts, processors, data_disks, cv, faulted, cache_units, interrupt,
        stops):
    args = (scripts, processors, data_disks, cv, faulted, cache_units,
            interrupt, stops)
    enabled = gc.isenabled()
    gc.disable()
    try:
        *compiled, engine = _simulate(False, *args)
        # No reference to a closed round survives: reference counting
        # alone frees the engine and every operation.
        assert engine() is None
    finally:
        if enabled:
            gc.enable()
    *oracle, _ = _simulate(True, *args)
    assert compiled == oracle


def test_the_schedules_reach_every_path():
    # One directed schedule: contended CPU and disk, a zero burst, a
    # dirty victim, an outage and a stretch, an interrupt inside a miss
    # and a close in the middle of another.
    scripts = [
        [("user", 0), ("miss", 1, True), ("miss", 2, False),
         ("miss", 3, False), ("os", 700)],
        [("miss", 4, True), ("block",), ("write", 0), ("log",)],
        [("miss", 5, False), ("spawn_write", 1), ("read", 1)],
        [("miss", 6, True), ("miss", 7, True), ("miss", 8, False),
         ("miss", 9, True), ("miss", 1, True), ("miss", 2, False)],
    ]
    args = (scripts, 1, 1, 0.4, True, 2, (2, 4), (0.01, 0.04))
    compiled = _simulate(False, *args)[:3]
    assert compiled == _simulate(True, *args)[:3]
    _stream, notes, states = compiled
    interrupted = [note for note in notes if INTERRUPT in note]
    assert interrupted and interrupted[0][2] == "miss"
    _first, second, closed = states
    assert second[1]["pending"] > 0 and closed[1]["pending"] == 0
    assert second[15] > 0 and second[17] > 0     # reads, dirty victims
    # The outage adds timeouts and the stretch lengthens reads.
    healthy = _simulate(False, *args[:4], False, *args[5:])[2][1]
    assert second[13] != healthy[13]
    assert second[12] > healthy[12]


class TestOperationProtocol:
    def _scheduler(self):
        engine = Engine()
        scheduler = Scheduler(engine, 1, 1e9)
        return engine, scheduler

    def test_a_zero_burst_yields_nothing_and_books_at_once(self):
        _engine, scheduler = self._scheduler()
        assert list(scheduler.execute_os(0)) == []
        assert scheduler.bursts == 0
        assert scheduler.os_instructions.count == 0.0

    def test_a_burst_yields_its_timeout_then_books(self):
        _engine, scheduler = self._scheduler()
        burst = scheduler.execute_user(500)
        assert iter(burst) is burst
        timeout = next(burst)
        assert scheduler.bursts == 1
        assert scheduler.user_instructions.count == 0.0
        with pytest.raises(StopIteration):
            burst.send(timeout)
        assert scheduler.user_instructions.count == 500.0
        assert scheduler.user_busy_s == 500 * scheduler.user_spi
        with pytest.raises(StopIteration):
            next(burst)

    @pytest.mark.parametrize("count", [-1.0, math.nan])
    def test_a_bad_count_raises_when_the_burst_starts(self, count):
        _engine, scheduler = self._scheduler()
        burst = scheduler.execute_user(count)
        with pytest.raises(ValueError, match="instructions"):
            next(burst)
        assert scheduler.bursts == 0

    def test_throw_and_close_end_an_operation_where_it_stands(self):
        _engine, scheduler = self._scheduler()
        claim = scheduler.acquire()
        burst = scheduler.block(claim)
        next(burst)
        with pytest.raises(KeyError):
            burst.throw(KeyError("x"))
        assert scheduler.context_switches.count == 0.0
        assert not scheduler.acquire().triggered    # the CPU stays held
        with pytest.raises(StopIteration):
            next(burst)
        closed = scheduler.execute_os(100)
        next(closed)
        assert closed.close() is None
        assert closed.close() is None
        assert scheduler.os_instructions.count == 0.0
        with pytest.raises(TypeError, match="exceptions must be"):
            scheduler.execute_os(1).throw(42)

    def test_read_miss_returns_the_reacquired_claim(self):
        engine = Engine()
        scheduler = Scheduler(engine, 1, 1e9)
        disks = DiskArray(engine, DiskConfig(count=3, service_time_s=0.004,
                                             service_time_cv=0.0),
                          RandomStreams(1))
        cache = BufferCache(2)
        dbwriter = DbWriter(engine, disks, scheduler)
        db = DatabaseEngine(engine, scheduler, disks, cache,
                            LockTable(engine), RedoLog(engine), dbwriter)
        held = []

        def proc():
            claim = scheduler.acquire()
            yield claim
            after = yield from db.read_miss(claim, 9, True)
            held.append((claim, after))

        engine.process(proc())
        engine.run()
        (before, after), = held
        assert after is not before and after.resource is scheduler.cpus
        assert db.physical_reads.count == 1.0
        assert disks.read_latency.n == 1
        assert snapshot(cache) == {9: True}
