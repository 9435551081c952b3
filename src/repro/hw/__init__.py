"""Hardware model: caches, TLB, branch prediction, bus, coherence.

This package is the substitute for the paper's physical Intel Xeon MP
server (and the Quad Itanium2 used in Section 6.3).  It provides:

- :mod:`~repro.hw.machine` — machine configurations (geometry, stall
  costs from Table 3, bus and disk parameters) with presets for the two
  machines the paper measures.
- :mod:`~repro.hw.cache` — a set-associative, write-back cache with LRU
  replacement and full event accounting.
- :mod:`~repro.hw.tlb` — a TLB modeled as a cache of page numbers.
- :mod:`~repro.hw.branch` — a bimodal branch predictor.
- :mod:`~repro.hw.coherence` — a directory that counts invalidations and
  coherence misses between per-CPU cache hierarchies.
- :mod:`~repro.hw.hierarchy` — per-CPU TC/L2/L3 stacks glued to the
  shared coherence directory; produces the event rates of Table 2.
- :mod:`~repro.hw.cwalk` — builds (once) and loads the C kernel that
  holds the cache, TLB and predictor state and walks the references.
- :mod:`~repro.hw.bus` — the front-side-bus IOQ queueing model that turns
  bus utilization into bus-transaction time (Figure 16).
- :mod:`~repro.hw.trace` — synthetic reference-stream generation from
  workload statistics.
"""

from repro.hw.machine import (
    BusConfig,
    CacheConfig,
    DiskConfig,
    MachineConfig,
    StallCosts,
    TlbConfig,
    ITANIUM2_QUAD,
    XEON_MP_QUAD,
    machine_by_name,
)
from repro.hw.cache import SetAssociativeCache
from repro.hw.tlb import Tlb
from repro.hw.branch import BimodalPredictor
from repro.hw.bus import BusModel
from repro.hw.coherence import CoherenceDirectory
from repro.hw.hierarchy import CpuHierarchy, SmpHierarchy
from repro.hw.trace import (
    MicroarchRates,
    TraceGenerator,
    TraceParameters,
    TraceProfile,
)

__all__ = [
    "MicroarchRates",
    "TraceGenerator",
    "TraceParameters",
    "TraceProfile",
    "BusConfig",
    "CacheConfig",
    "DiskConfig",
    "MachineConfig",
    "StallCosts",
    "TlbConfig",
    "ITANIUM2_QUAD",
    "XEON_MP_QUAD",
    "machine_by_name",
    "SetAssociativeCache",
    "Tlb",
    "BimodalPredictor",
    "BusModel",
    "CoherenceDirectory",
    "CpuHierarchy",
    "SmpHierarchy",
]
