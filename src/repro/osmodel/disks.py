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

from typing import TYPE_CHECKING, Optional

from repro.hw.machine import DiskConfig
from repro.hw.sampling import lognormal
from repro.sim import Engine, Resource
from repro.sim.engine import Timeout
from repro.sim.randomness import RandomStreams
from repro.sim.stats import Counter, Tally

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import DiskFaultModel

#: Disks of the array dedicated to the redo log; the rest hold data.
LOG_DISKS = 2


class DiskArray:
    """A striped array of data disks plus dedicated log disks."""

    #: Fraction of the disk service time for a sequential log append.
    LOG_SERVICE_FACTOR = 0.15
    #: Fraction of the read service time for an asynchronous data write:
    #: the controller's write cache and elevator scheduling batch them.
    WRITE_SERVICE_FACTOR = 0.25

    def __init__(self, engine: Engine, config: DiskConfig,
                 streams: RandomStreams):
        if config.count <= LOG_DISKS:
            raise ValueError(
                f"the array needs more than its {LOG_DISKS} log disks, "
                f"got {config.count} disks")
        self.engine = engine
        #: Degradation state (repro.faults), set by a faulted system;
        #: None = healthy array.
        self.fault_model: Optional["DiskFaultModel"] = None
        self.data_disk_count = config.count - LOG_DISKS
        self._data_disks = [Resource(engine, 1, name=f"disk{i}")
                            for i in range(self.data_disk_count)]
        self._log_disks = [Resource(engine, 1, name=f"logdisk{i}")
                           for i in range(LOG_DISKS)]
        # Drawn in the walk kernel, from the kernel stream disk-service.
        self._service_time = lognormal(
            streams.kernel_stream("disk-service"), config.service_time_s,
            config.service_time_cv)
        self.writes = Counter("disk-writes")
        self.read_latency = Tally("read-latency")
        self._log_seq = 0
        #: Service and outage timeouts scheduled (with the disks'
        #: grants, ``engine.events.disk``).
        self.timeouts = 0

    # -- operations (simulation processes) ----------------------------------

    # read(), write() and log_append() hand back the _serve generator
    # itself, one generator level fewer per request; callers
    # ``yield from`` it.

    def read(self, block_id: int):
        """Blocking read of a data block; yields until the data is in memory."""
        index = block_id % self.data_disk_count
        return self._serve(self._data_disks[index], index, 1.0, True,
                           latency=self.read_latency)

    def write(self, block_id: int):
        """Write of a data block (the caller decides whether to wait)."""
        index = block_id % self.data_disk_count
        return self._serve(self._data_disks[index], index,
                           self.WRITE_SERVICE_FACTOR, True,
                           served=self.writes)

    def log_append(self):
        """Sequential append to the redo log (round-robin over the log
        disks, which disk faults never touch)."""
        self._log_seq += 1
        index = self._log_seq % LOG_DISKS
        return self._serve(self._log_disks[index], index,
                           self.LOG_SERVICE_FACTOR, False)

    def _serve(self, disk: Resource, index: int, service_factor: float,
               faultable: bool, served: Optional[Counter] = None,
               latency: Optional[Tally] = None):
        """Queue on ``disk`` and hold it for one service time; then
        count the request in ``served`` or its queueing-plus-service
        latency in ``latency``, when given."""
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
        if served is not None:
            served.count += 1
        if latency is not None:
            latency.record(queued + service)

    def events(self) -> int:
        """DES events the array has scheduled: every grant of a disk
        claim plus every service and outage timeout."""
        return self.timeouts + sum(
            disk.grants for disk in self._data_disks + self._log_disks)
