"""Machine configurations.

Two presets mirror the paper's testbeds:

- :data:`XEON_MP_QUAD` — the primary machine: 4-way Intel Xeon MP at
  1.6 GHz, trace cache + 256 KB L2 + 1 MB L3, 4 GB memory (1 GB reserved
  for the OS), 26 Ultra320 disks (Section 3.3).
- :data:`ITANIUM2_QUAD` — the validation machine of Section 6.3: 3 MB L3,
  ~50% more bus bandwidth, 16 GB memory, 34 disks.

Stall costs reproduce Table 3 exactly; they are what the CPI
decomposition of Table 4 multiplies against event rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError(f"{self.name}: cache dimensions must be positive")
        if not _is_power_of_two(self.line_bytes):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible into "
                f"{self.associativity}-way sets of {self.line_bytes}B lines")

    @property
    def total_lines(self) -> int:
        """Line count of the cache (capacity / line size)."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Set count of the cache (lines / associativity)."""
        return self.total_lines // self.associativity


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of the data TLB."""

    entries: int
    associativity: int
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ValueError("TLB dimensions must be positive")
        if self.entries % self.associativity != 0:
            raise ValueError("TLB entries must divide into ways")
        if not _is_power_of_two(self.page_bytes):
            raise ValueError("page size must be a power of two")


@dataclass(frozen=True)
class BusConfig:
    """Front-side bus parameters for the IOQ queueing model.

    ``base_transaction_cycles`` is the unloaded time for a bus transaction
    to complete once it enters the IOQ — the paper measures 102 cycles on
    the 1P Xeon (Table 3).  ``occupancy_cycles`` is how long one
    transaction holds the shared bus (the data-phase occupancy); it sets
    the bandwidth ceiling and hence the utilization for a given miss rate.
    ``max_utilization`` caps the queueing model short of its singularity.
    """

    base_transaction_cycles: float = 102.0
    occupancy_cycles: float = 24.0
    max_utilization: float = 0.95
    #: Multiplier on the M/G/1 queueing delay capturing snoop/arbitration
    #: overhead beyond pure data-phase serialization.
    queue_weight: float = 1.8

    def __post_init__(self) -> None:
        if self.base_transaction_cycles <= 0 or self.occupancy_cycles <= 0:
            raise ValueError("bus timing parameters must be positive")
        if not 0.0 < self.max_utilization < 1.0:
            raise ValueError("max_utilization must be in (0, 1)")
        if self.queue_weight < 0:
            raise ValueError("queue_weight must be >= 0")


@dataclass(frozen=True)
class DiskConfig:
    """Disk subsystem parameters."""

    count: int = 26
    service_time_s: float = 0.0045
    service_time_cv: float = 0.35
    capacity_bytes: int = 73 * 10**9

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("disk count must be positive")
        if self.service_time_s <= 0:
            raise ValueError("disk service time must be positive")


@dataclass(frozen=True)
class StallCosts:
    """Fixed per-event CPU stall cycles — Table 3 of the paper.

    The L3 cost here is the *unloaded* miss latency; the CPI model adds
    the bus-transaction time in excess of the 1P baseline (Table 4's
    ``L3 Miss * (300 + Bus-Transaction Time - Bus-Transaction Time for
    1P)`` term).
    """

    instruction: float = 0.5
    branch_mispredict: float = 20.0
    tlb_miss: float = 20.0
    tc_miss: float = 20.0
    l2_miss: float = 16.0
    l3_miss: float = 300.0


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine: CPU geometry, stall costs, bus, disks, memory."""

    name: str
    frequency_hz: float
    max_processors: int
    tc: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    dtlb: TlbConfig
    costs: StallCosts
    bus: BusConfig
    disks: DiskConfig
    memory_bytes: int
    os_reserved_bytes: int
    #: CPI the core achieves on an L3-resident instruction stream over and
    #: above the Table 3 computed components ("Other" floor).
    other_cpi: float = 0.35

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.max_processors <= 0:
            raise ValueError("max_processors must be positive")
        if self.os_reserved_bytes >= self.memory_bytes:
            raise ValueError("OS reservation exceeds physical memory")

    @property
    def sga_bytes(self) -> int:
        """Memory available to the database's System Global Area."""
        return self.memory_bytes - self.os_reserved_bytes

    def with_l3_size(self, size_bytes: int) -> "MachineConfig":
        """A copy with a different L3 capacity (ablation A1)."""
        return replace(self, name=f"{self.name}/l3={size_bytes // 1024}KB",
                       l3=replace(self.l3, size_bytes=size_bytes))

    def with_disks(self, count: int) -> "MachineConfig":
        """A copy with a different disk count (ablation A2)."""
        return replace(self, name=f"{self.name}/disks={count}",
                       disks=replace(self.disks, count=count))


GIB = 1024**3

#: The paper's primary testbed (Section 3.3): 4-way Intel Xeon MP,
#: 1.6 GHz, trace cache / 256 KB L2 / 1 MB L3, 4 GB PC200 DDR of which
#: 1 GB is reserved for Linux, 26 Ultra320 SCSI disks.
XEON_MP_QUAD = MachineConfig(
    name="xeon-mp-quad",
    frequency_hz=1.6e9,
    max_processors=4,
    # The execution trace cache holds ~12K uops; modeled as a 96 KB
    # code-only cache with 64 B lines.
    tc=CacheConfig("TC", size_bytes=96 * 1024, line_bytes=64, associativity=8),
    l2=CacheConfig("L2", size_bytes=256 * 1024, line_bytes=128, associativity=8),
    l3=CacheConfig("L3", size_bytes=1024 * 1024, line_bytes=128, associativity=8),
    dtlb=TlbConfig(entries=64, associativity=64),
    costs=StallCosts(),
    bus=BusConfig(base_transaction_cycles=102.0, occupancy_cycles=60.0),
    disks=DiskConfig(count=26),
    memory_bytes=4 * GIB,
    os_reserved_bytes=1 * GIB,
)

#: The Section 6.3 validation machine: Quad Itanium2, 3 MB L3, about 50%
#: more bus bandwidth, 16 GB memory, 34 disks.  Stall costs are kept
#: identical to the Xeon so that machine geometry is the *only* thing
#: that differs between Figure 9 and Figure 19 (see DESIGN.md §5).
ITANIUM2_QUAD = MachineConfig(
    name="itanium2-quad",
    frequency_hz=1.5e9,
    max_processors=4,
    tc=CacheConfig("TC", size_bytes=96 * 1024, line_bytes=64, associativity=8),
    l2=CacheConfig("L2", size_bytes=256 * 1024, line_bytes=128, associativity=8),
    l3=CacheConfig("L3", size_bytes=3 * 1024 * 1024, line_bytes=128,
                   associativity=12),
    dtlb=TlbConfig(entries=128, associativity=128),
    costs=StallCosts(),
    # ~50% more bus bandwidth -> each transaction occupies the bus for
    # two-thirds the cycles.
    bus=BusConfig(base_transaction_cycles=102.0, occupancy_cycles=40.0),
    disks=DiskConfig(count=34),
    memory_bytes=16 * GIB,
    os_reserved_bytes=1 * GIB,
)

_MACHINES = {m.name: m for m in (XEON_MP_QUAD, ITANIUM2_QUAD)}


def machine_by_name(name: str) -> MachineConfig:
    """Look up a preset machine configuration."""
    try:
        return _MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(_MACHINES))
        raise KeyError(f"unknown machine {name!r}; known machines: {known}")
