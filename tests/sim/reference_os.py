"""The OS and database model's transaction path in Python, kept as the
oracle for the compiled one.

These are ``Scheduler``'s methods, ``DiskArray._serve`` with ``read``,
``write`` and ``log_append``, the ``Gate``, the ``LockTable``, the
``RedoLog``'s commit side with ``wait_for_flush``, ``DatabaseEngine``'s
``read_miss``, ``lock``, ``commit`` and ``abort``, and the client loop
``client_process``, as they were before they moved into
``repro/sim/_des.c``, unchanged but for four things.  The service time
is drawn by ``mt_lognormal`` through a ``partial`` from the kernel
stream ``disk-service``, as the program's ``hw.sampling.lognormal``
then drew it.  A block is installed by ``tests.db.reference_lru``'s
``install``, which is ``BufferCache.install`` as it was.  The gate and
the lock table make their events with ``engine.event()``, so the gate
runs on the Python event kernel too.  The log writer's side of the
redo log stays in the program, which the oracle's ``RedoLog`` keeps.
They run on the compiled event kernel, its ``Resource``, ``Counter``
and ``Tally``, so ``tests/osmodel/test_compiled_operations.py`` and
``tests/odb/test_compiled_client.py`` can drive them beside the
compiled operations through the same schedules, and
``tests/sim/test_des_kernel.py`` drives the gate on both kernels.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from random import NV_MAGICCONST
from typing import Hashable, Optional

from repro.hw.cwalk import lib
from repro.hw.machine import DiskConfig
from repro.hw.sampling import lognormal_parameters
from repro.osmodel.disks import LOG_DISKS
from repro.osmodel.kernelcost import KernelCosts
from repro.sim import Engine, Resource
from repro.sim.engine import SimulationError, Timeout
from repro.sim.randomness import RandomStreams
from repro.sim.resources import Request
from repro.sim.stats import Counter, Tally
from tests.db.reference_lru import install


class Scheduler:
    """P CPUs plus context-switch and user/OS accounting."""

    def __init__(self, engine: Engine, processors: int, frequency_hz: float,
                 costs: KernelCosts = KernelCosts()):
        if processors <= 0:
            raise ValueError("processors must be positive")
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.engine = engine
        self.costs = costs
        self.cpus = Resource(engine, processors, name="cpus")
        # Default to CPI=2.0 until the runner calibrates.
        self.user_spi = 2.0 / frequency_hz
        self.os_spi = 2.0 / frequency_hz
        self.context_switches = Counter("context-switches")
        self.user_instructions = Counter("user-instructions")
        self.os_instructions = Counter("os-instructions")
        self.user_busy_s = 0.0
        self.os_busy_s = 0.0
        self.bursts = 0

    def acquire(self) -> Request:
        """Claim a CPU slot; yield the returned request to wait for it."""
        return self.cpus.request()

    def release(self, claim: Request) -> None:
        """Give up the CPU without a blocking switch (transaction end)."""
        self.cpus.release(claim)

    def block(self, claim: Request):
        """Voluntarily block: charge the context-switch path, then release."""
        yield from self.execute_os(self.costs.context_switch)
        self.context_switches.count += 1
        self.cpus.release(claim)

    def execute_user(self, instructions: float):
        """Run ``instructions`` of user code on the held CPU."""
        if not instructions >= 0:
            raise ValueError("instructions must be >= 0")
        duration = instructions * self.user_spi
        if duration > 0:
            self.bursts += 1
            yield Timeout(self.engine, duration)
        self.user_instructions.count += instructions
        self.user_busy_s += duration

    def execute_os(self, instructions: float):
        """Run ``instructions`` of kernel code on the held CPU."""
        if not instructions >= 0:
            raise ValueError("instructions must be >= 0")
        duration = instructions * self.os_spi
        if duration > 0:
            self.bursts += 1
            yield Timeout(self.engine, duration)
        self.os_instructions.count += instructions
        self.os_busy_s += duration


class DiskArray:
    """A striped array of data disks plus dedicated log disks."""

    LOG_SERVICE_FACTOR = 0.15
    WRITE_SERVICE_FACTOR = 0.25

    def __init__(self, engine: Engine, config: DiskConfig,
                 streams: RandomStreams):
        if config.count <= LOG_DISKS:
            raise ValueError(
                f"the array needs more than its {LOG_DISKS} log disks, "
                f"got {config.count} disks")
        self.engine = engine
        self.fault_model = None
        self.data_disk_count = config.count - LOG_DISKS
        self._data_disks = [Resource(engine, 1, name=f"disk{i}")
                            for i in range(self.data_disk_count)]
        self._log_disks = [Resource(engine, 1, name=f"logdisk{i}")
                           for i in range(LOG_DISKS)]
        parameters = lognormal_parameters(config.service_time_s,
                                          config.service_time_cv)
        if parameters is None:
            mean = config.service_time_s
            self._service_time = lambda: mean
        else:
            self._service_time = partial(
                lib.mt_lognormal, streams.kernel_stream("disk-service"),
                *parameters, NV_MAGICCONST)
        self.writes = Counter("disk-writes")
        self.read_latency = Tally("read-latency")
        self._log_seq = 0
        self.timeouts = 0

    def read(self, block_id: int):
        """Blocking read of a data block."""
        index = block_id % self.data_disk_count
        return self._serve(self._data_disks[index], index, 1.0, True,
                           latency=self.read_latency)

    def write(self, block_id: int):
        """Write of a data block."""
        index = block_id % self.data_disk_count
        return self._serve(self._data_disks[index], index,
                           self.WRITE_SERVICE_FACTOR, True,
                           served=self.writes)

    def log_append(self):
        """Sequential append to the redo log."""
        self._log_seq += 1
        index = self._log_seq % LOG_DISKS
        return self._serve(self._log_disks[index], index,
                           self.LOG_SERVICE_FACTOR, False)

    def _serve(self, disk: Resource, index: int, service_factor: float,
               faultable: bool, served: Optional[Counter] = None,
               latency: Optional[Tally] = None):
        engine = self.engine
        arrived = engine._now
        claim = disk.request()
        yield claim
        service = service_factor * self._service_time()
        if faultable and self.fault_model is not None:
            outage = self.fault_model.outage_wait_s(index, engine._now)
            if outage > 0:
                self.timeouts += 1
                yield Timeout(engine, outage)
            service *= self.fault_model.latency_factor(index)
        queued = engine._now - arrived
        self.timeouts += 1
        yield Timeout(engine, service)
        disk.release(claim)
        if served is not None:
            served.count += 1
        if latency is not None:
            latency.record(queued + service)


class Gate:
    """A broadcast condition with a monotonically increasing level."""

    def __init__(self, engine, level: float = 0.0, name: str = ""):
        self.engine = engine
        self.name = name
        self._level = level
        self._waiters: list = []

    @property
    def level(self) -> float:
        """Current gate level."""
        return self._level

    def wait_for(self, threshold: float):
        """Event firing once ``level >= threshold`` (immediately if already)."""
        event = self.engine.event()
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


class LockTable:
    """Exclusive locks keyed by arbitrary hashables, held to commit."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: key -> its holder; a key nobody holds has no entry.
        self._holder: dict = {}
        #: key -> ``(owner, event)`` of each waiter, in arrival order.
        self._queue: dict = {}
        #: owner -> the keys it holds, in acquisition order.
        self._held: dict = {}

    def would_wait(self, owner: object, key: Hashable) -> bool:
        """True when acquiring now would block (never for the holder)."""
        holder = self._holder.get(key)
        return holder is not None and holder is not owner

    def acquire(self, owner: object, key: Hashable):
        """Acquire ``key`` for ``owner``; yields while queued.  The
        holder acquiring it again raises :class:`SimulationError`."""
        if key in self._holder and self._holder[key] is owner:
            raise SimulationError(f"lock {key!r} acquired again by its "
                                  "holder")
        event = self.engine.event()
        if key in self._holder:
            self._queue.setdefault(key, deque()).append((owner, event))
        else:
            self._holder[key] = owner
            event.succeed()
        yield event
        self._held.setdefault(owner, []).append(key)

    def acquire_many(self, owner: object, keys):
        """Acquire several keys in the given (fixed) order."""
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


def wait_for_flush(redo, sequence: int):
    """Block until ``sequence`` of ``redo`` (the program's redo log or
    the oracle's) is durable; yields the gate event and books the wait
    in ``commit_wait``."""
    started = redo.engine._now
    yield redo._flushed.wait_for(sequence)
    redo.commit_wait.record(redo.engine._now - started)


class RedoLog:
    """The shared redo buffer and its flush gate."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self._next_sequence = 0
        self._flushed = Gate(engine, level=0.0, name="redo-flushed")
        self.bytes_written = Counter("log-bytes")
        self.flushes = Counter("log-flushes")
        self.group_size = Tally("group-commit-size")
        self.commit_wait = Tally("commit-wait-time")

    @property
    def pending_sequence(self) -> int:
        """Highest sequence number appended so far."""
        return self._next_sequence

    @property
    def flushed_sequence(self) -> float:
        """Highest redo sequence number durably flushed."""
        return self._flushed.level

    def append(self, redo_bytes: float) -> int:
        """Append one transaction's redo; returns its commit sequence."""
        self._next_sequence += 1
        self.bytes_written.add(redo_bytes)
        return self._next_sequence

    def wait_for_flush(self, sequence: int):
        """Block until ``sequence`` is durable; yields the gate event."""
        return wait_for_flush(self, sequence)

    def mark_flushed(self, sequence: int, group: int) -> None:
        """Log-writer callback after a successful flush."""
        self.flushes.count += 1
        if group > 0:
            self.group_size.record(group)
        self._flushed.advance(sequence)


class DatabaseEngine:
    """Buffer cache + locks + redo + writer behind one interface."""

    #: Latch-style waiting: a blocked process re-wakes this often to
    #: retry, costing a context-switch pair each time.
    LATCH_SLEEP_S = 0.001

    def __init__(self, engine: Engine, scheduler: Scheduler,
                 disks: DiskArray, buffer_cache, lock_table: LockTable,
                 redo: RedoLog, dbwriter):
        self.engine = engine
        self.scheduler = scheduler
        self.disks = disks
        self.buffer_cache = buffer_cache
        self.lock_table = lock_table
        self.redo = redo
        self.dbwriter = dbwriter
        self.physical_reads = Counter("physical-reads")
        self.transactions = Counter("transactions-committed")
        self.aborted = Counter("transactions-aborted")
        self.lock_wait_switches = Counter("lock-wait-switches")

    def read_miss(self, claim: Request, block_id: int, write: bool):
        """The I/O after a buffer-cache miss; returns the CPU claim held
        afterwards."""
        self.physical_reads.count += 1
        scheduler = self.scheduler
        yield from scheduler.execute_os(scheduler.costs.io_submit)
        yield from scheduler.block(claim)
        yield from self.disks.read(block_id)
        claim = scheduler.acquire()
        yield claim
        yield from scheduler.execute_os(scheduler.costs.io_complete)
        victim = install(self.buffer_cache, block_id, dirty=write)
        if victim is not None:
            victim_id, victim_dirty = victim
            if victim_dirty:
                self.dbwriter.enqueue(victim_id)
        return claim

    def lock(self, claim: Request, owner: object, key: Hashable):
        """Take an exclusive held-to-commit lock; blocks when contended.
        Returns the CPU claim held afterwards."""
        scheduler = self.scheduler
        if self.lock_table.would_wait(owner, key):
            yield from scheduler.block(claim)
            self.lock_wait_switches.count += 1
            wait_started = self.engine._now
            yield from self.lock_table.acquire(owner, key)
            waited = self.engine._now - wait_started
            claim = scheduler.acquire()
            yield claim
            if waited < 5 * self.LATCH_SLEEP_S:
                retries = int(waited / self.LATCH_SLEEP_S)
            else:
                retries = 0
            if retries:
                scheduler.context_switches.add(retries)
                yield from scheduler.execute_os(
                    retries * scheduler.costs.context_switch)
        else:
            yield from self.lock_table.acquire(owner, key)
        return claim

    def commit(self, claim: Request, owner: object, redo_bytes: float):
        """Append redo, wait for group commit, release locks.  Returns
        the CPU claim held afterwards."""
        scheduler = self.scheduler
        sequence = self.redo.append(redo_bytes)
        yield from scheduler.block(claim)
        yield from self.redo.wait_for_flush(sequence)
        claim = scheduler.acquire()
        yield claim
        self.lock_table.release_all(owner)
        self.transactions.count += 1
        return claim

    def abort(self, owner: object) -> None:
        """Release everything without committing."""
        self.lock_table.release_all(owner)
        self.aborted.add()


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
            for lock in kind.locks:
                claim = yield from db.lock(claim, owner, (lock, warehouse))
            for code in touches:
                yield from execute_user(chunk)
                if not lru_lookup(lru, code >> 1, code & 1):
                    claim = yield from read_miss(claim, code >> 1, code & 1)
            yield from execute_user(chunk)
            yield from scheduler.execute_os(scheduler.costs.base_per_txn)
            if abort_rng is not None and (
                    abort_rng.random()
                    < faults.aborts.probability * kind.abort_weight):
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
