"""Disk array model.

``D`` independent disks, each a FIFO-served single-slot resource with a
lognormal service time.  Blocks are striped across disks by block id, so
load spreads evenly; dedicated log disks serve the redo stream
sequentially with a much shorter service time.

Saturation of this array is what produces the paper's I/O-bound region:
at 1200 warehouses the 26-disk array can no longer keep 4 processors at
90% utilization (Section 4.1).

The array is compiled (``_des.DiskArray`` in ``repro/sim/_des.c``,
DESIGN.md §11, "Compiled OS operations"): ``read``, ``write`` and
``log_append`` each return one compiled disk request that callers
``yield from`` or run as a process.  A request queues on its disk,
draws its service time at the grant from the kernel stream
``disk-service`` (the walk kernel's ``mt_lognormal``), waits out a
fault model's outage and stretches the service by its latency factor
(data disks only), holds the disk for the service, releases it, and
then books ``writes`` or ``read_latency``; ``timeouts`` counts the
service and outage timeouts it schedules.
"""

from __future__ import annotations

from random import NV_MAGICCONST

from repro.hw.cwalk import ffi, lib
from repro.hw.machine import DiskConfig
from repro.hw.sampling import address, lognormal_parameters
from repro.sim import Engine, Resource
from repro.sim.engine import _des
from repro.sim.randomness import RandomStreams

#: Disks of the array dedicated to the redo log; the rest hold data.
LOG_DISKS = 2

# The disk service, the database engine's miss path and the client loop
# call the walk kernel's lognormal draw and buffer-cache install and
# lookup through these addresses, handed over once.
_des.link_walk(*(address(ffi.addressof(lib, name))
                 for name in ("mt_lognormal", "lru_install", "lru_lookup")))


class DiskArray(_des.DiskArray):
    """A striped array of data disks plus dedicated log disks.

    ``data_disk_count`` of the ``config.count`` disks hold data;
    ``fault_model`` is the degradation state (repro.faults), set by a
    faulted system, None for a healthy array.
    """

    __slots__ = ()

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
        data = [Resource(engine, 1, name=f"disk{i}")
                for i in range(config.count - LOG_DISKS)]
        logs = [Resource(engine, 1, name=f"logdisk{i}")
                for i in range(LOG_DISKS)]
        parameters = lognormal_parameters(config.service_time_s,
                                          config.service_time_cv)
        drawn = {}
        if parameters is not None:
            stream = streams.kernel_stream("disk-service")
            drawn = dict(stream=stream, address=address(stream),
                         mu=parameters[0], sigma=parameters[1],
                         magic=NV_MAGICCONST)
        super().__init__(engine, data, logs, self.WRITE_SERVICE_FACTOR,
                         self.LOG_SERVICE_FACTOR, config.service_time_s,
                         **drawn)

    def events(self) -> int:
        """DES events the array has scheduled: every grant of a disk
        claim plus every service and outage timeout."""
        return self.timeouts + sum(
            disk.grants for disk in self._data_disks + self._log_disks)
