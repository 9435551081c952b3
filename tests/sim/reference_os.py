"""The OS model's miss path in Python, kept as the oracle for the compiled one.

These are ``Scheduler``'s methods, ``DiskArray._serve`` with ``read``,
``write`` and ``log_append``, and ``DatabaseEngine.read_miss`` as they
were before they moved into ``repro/sim/_des.c``, unchanged but for two
things.  The service time is drawn by ``mt_lognormal`` through a
``partial`` from the kernel stream ``disk-service``, as the program's
``hw.sampling.lognormal`` then drew it.  The database engine keeps only
what ``read_miss`` reads.  They run on the compiled event kernel, its
``Resource``, ``Counter`` and ``Tally``, so
``tests/osmodel/test_compiled_operations.py`` can drive them beside the
compiled operations through the same schedules.
"""

from __future__ import annotations

from functools import partial
from random import NV_MAGICCONST
from typing import Optional

from repro.hw.cwalk import lib
from repro.hw.machine import DiskConfig
from repro.hw.sampling import lognormal_parameters
from repro.osmodel.disks import LOG_DISKS
from repro.osmodel.kernelcost import KernelCosts
from repro.sim import Engine, Resource
from repro.sim.engine import Timeout
from repro.sim.randomness import RandomStreams
from repro.sim.resources import Request
from repro.sim.stats import Counter, Tally


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


class DatabaseEngine:
    """What ``read_miss`` reads of the database engine."""

    def __init__(self, scheduler: Scheduler, disks: DiskArray, buffer_cache,
                 dbwriter):
        self.scheduler = scheduler
        self.disks = disks
        self.buffer_cache = buffer_cache
        self.dbwriter = dbwriter
        self.physical_reads = Counter("physical-reads")

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
        victim = self.buffer_cache.install(block_id, dirty=write)
        if victim is not None:
            victim_id, victim_dirty = victim
            if victim_dirty:
                self.dbwriter.enqueue(victim_id)
        return claim
