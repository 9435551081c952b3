"""Sweep fabric: a coordinator leasing points to stdio worker processes.

The second executor behind the one sweep driver (DESIGN.md §8):
:func:`~repro.experiments.parallel.run_points` fans a sweep across a
local process pool, or — with this package — a
:class:`FabricCoordinator` leases :class:`RunSpec` points to worker
processes it spawns on the same host and frames over their stdin/stdout
pipes.  Workers stream results (plus serialized telemetry when the
sweep is traced) back, and the driver remains the *sole* writer to the
:class:`~repro.experiments.resilience.SweepJournal`.

The coordinator owns the fleet; retries, backoff, deadlines, dedup and
the degradation ladder are the driver's:

- leases a point deadline can cancel, with late completions accepted;
- **heartbeat** liveness detection with a configurable timeout;
- a protocol-version **handshake** over schema-checked, length-prefixed
  JSON frames — a malformed frame quarantines the worker, not the sweep;
- completions idempotent by config key, so a re-leased point that
  completes twice is deduplicated, never double-counted;
- graceful degradation: when every worker is lost the driver finishes
  the sweep on the local pool;
- **coordinator crash-resume** — the journal's owner lock is held for
  the sweep; a killed coordinator's stale lock is broken by
  ``repro sweep --resume``, which re-leases only unjournaled points.

Because every point is a pure function of its spec, none of this can
change results: fabric sweeps are bit-identical to serial sweeps, which
the deterministic :class:`~repro.fabric.chaos.FabricChaosPolicy` tests
(worker SIGKILL mid-point, heartbeat blackhole, corrupt frames,
duplicate completions, latency, asymmetric partitions) pin in
``tests/fabric/``.
"""

from repro.fabric.chaos import FabricChaosPolicy
from repro.fabric.coordinator import (
    FabricCoordinator,
    FabricPolicy,
    WorkerHealth,
    fabric_run_many,
    fabric_run_telemetry,
)
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.fabric.transports import StdioTransport, WorkerTransport

__all__ = [
    "FabricChaosPolicy",
    "FabricCoordinator",
    "FabricPolicy",
    "FrameError",
    "PROTOCOL_VERSION",
    "StdioTransport",
    "WorkerHealth",
    "WorkerTransport",
    "decode_frame",
    "encode_frame",
    "fabric_run_many",
    "fabric_run_telemetry",
    "read_frame",
    "write_frame",
]
