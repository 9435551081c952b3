"""Disk array model.

``D`` independent disks, each a FIFO-served single-slot resource with a
lognormal service time.  Blocks are striped across disks by block id, so
load spreads evenly; dedicated log disks serve the redo stream
sequentially with a much shorter service time.

Saturation of this array is what produces the paper's I/O-bound region:
at 1200 warehouses the 26-disk array can no longer keep 4 processors at
90% utilization (Section 4.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.hw.machine import DiskConfig
from repro.sim import Engine, Resource
from repro.sim.engine import Timeout
from repro.sim.randomness import RandomStreams, lognormal_sampler
from repro.sim.stats import Counter, Tally

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import DiskFaultModel


class DiskRequest(NamedTuple):
    """A completed disk request's accounting record (a named tuple: one
    is built per request, and a frozen dataclass costs several times
    more to construct)."""

    disk: int
    queued_s: float
    service_s: float

    @property
    def latency_s(self) -> float:
        """Queueing plus service time of the request, in seconds."""
        return self.queued_s + self.service_s


class DiskArray:
    """A striped array of data disks plus dedicated log disks."""

    #: Fraction of the disk service time for a sequential log append.
    LOG_SERVICE_FACTOR = 0.15
    #: Fraction of the read service time for an asynchronous data write:
    #: the controller's write cache and elevator scheduling batch them.
    WRITE_SERVICE_FACTOR = 0.25

    def __init__(self, engine: Engine, config: DiskConfig,
                 streams: RandomStreams, log_disks: int = 2,
                 fault_model: Optional["DiskFaultModel"] = None):
        if log_disks < 0 or log_disks >= config.count:
            raise ValueError(
                f"log_disks must be in [0, {config.count}), got {log_disks}")
        self.engine = engine
        self.config = config
        #: Optional degradation state (repro.faults); None = healthy array.
        self.fault_model = fault_model
        self.data_disk_count = config.count - log_disks
        self.log_disk_count = log_disks
        self._data_disks = [Resource(engine, 1, name=f"disk{i}")
                            for i in range(self.data_disk_count)]
        self._log_disks = [Resource(engine, 1, name=f"logdisk{i}")
                           for i in range(log_disks)]
        self._service_time = lognormal_sampler(
            streams.stream("disk-service"), config.service_time_s,
            config.service_time_cv)
        self.reads = Counter("disk-reads")
        self.writes = Counter("disk-writes")
        self.log_writes = Counter("log-writes")
        self.read_latency = Tally("read-latency")
        self.write_latency = Tally("write-latency")
        self._log_seq = 0
        #: Service and outage timeouts scheduled (with the disks'
        #: grants, ``engine.events.disk``).
        self.timeouts = 0

    # -- operations (simulation processes) ----------------------------------

    # read() and write() hand back the _serve generator itself, one
    # generator level fewer per request; callers ``yield from`` either.

    def read(self, block_id: int):
        """Blocking read of a data block; yields until the data is in memory."""
        index = block_id % self.data_disk_count
        return self._serve(self._data_disks[index], index, 1.0, True,
                           self.reads, self.read_latency)

    def write(self, block_id: int):
        """Write of a data block (the caller decides whether to wait)."""
        index = block_id % self.data_disk_count
        return self._serve(self._data_disks[index], index,
                           self.WRITE_SERVICE_FACTOR, True,
                           self.writes, self.write_latency)

    def log_append(self):
        """Sequential append to the redo log (round-robin over log disks).

        Falls back to the data disks when no dedicated log disks exist.
        """
        self._log_seq += 1
        if self._log_disks:
            index = self._log_seq % self.log_disk_count
            disk = self._log_disks[index]
            faultable = False
        else:
            index = self._log_seq % self.data_disk_count
            disk = self._data_disks[index]
            faultable = True
        return (yield from self._serve(disk, index, self.LOG_SERVICE_FACTOR,
                                       faultable, self.log_writes))

    def _serve(self, disk: Resource, index: int, service_factor: float,
               faultable: bool, served: Counter,
               latency: Optional[Tally] = None):
        """Queue on ``disk``, hold it for one service time, then count
        the request in ``served`` (and its latency in ``latency``)."""
        engine = self.engine
        arrived = engine._now
        claim = disk.request()
        yield claim
        service = service_factor * self._service_time()
        if faultable and self.fault_model is not None:
            # An outage holds the disk (and its queue) until the window
            # closes; degradation then stretches the service itself.
            outage = self.fault_model.outage_wait_s(index, engine._now)
            if outage > 0:
                self.timeouts += 1
                yield Timeout(engine, outage)
            service *= self.fault_model.latency_factor(index)
        queued = engine._now - arrived
        self.timeouts += 1
        yield Timeout(engine, service)
        disk.release(claim)
        request = DiskRequest(disk=index, queued_s=queued, service_s=service)
        served.count += 1
        if latency is not None:
            latency.record(request.latency_s)
        return request

    def events(self) -> int:
        """DES events the array has scheduled: every grant of a disk
        claim plus every service and outage timeout."""
        return self.timeouts + sum(
            disk.grants for disk in self._data_disks + self._log_disks)
