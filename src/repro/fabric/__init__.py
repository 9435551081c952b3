"""Distributed sweep fabric: coordinator/worker execution over transports.

The multi-host executor behind the one sweep driver (DESIGN.md §8):
:func:`~repro.experiments.parallel.run_points` fans a sweep across a
local process pool, and this package takes the "hosts, not just cores"
step — a :class:`FabricCoordinator` leases :class:`RunSpec` points to
remote worker processes over pluggable transports (stdio subprocess
pipes, TCP sockets), workers stream results (plus serialized telemetry
when the sweep is traced) back, and the driver remains the *sole*
writer to the :class:`~repro.experiments.resilience.SweepJournal`.

The coordinator owns the fleet; retries, backoff, deadlines, dedup and
the degradation ladder are the driver's:

- leases a point deadline can cancel, with late completions accepted;
- **heartbeat** liveness detection with a configurable timeout;
- a protocol-version **handshake** over schema-checked, length-prefixed
  JSON frames — a malformed frame quarantines the worker, not the sweep;
- completions idempotent by config key, so a re-leased point that
  completes twice is deduplicated, never double-counted;
- graceful degradation: when every remote worker is lost the driver
  finishes the sweep on the local pool.

Multi-host hardening layers on top:

- **authenticated framing** — with a shared secret
  (``--fabric-secret`` file or ``REPRO_FABRIC_SECRET``) every frame
  carries an HMAC-SHA256 signature over ``nonce || sequence || body``
  (:class:`~repro.fabric.protocol.FrameSigner`); the coordinator deals
  the session nonce in a ``challenge`` frame, so forged, replayed, or
  cross-sweep frames are rejected
  (:class:`~repro.fabric.protocol.FrameAuthError`,
  ``fabric.auth.rejected``) without failing the sweep;
- **worker reconnect** — ``repro fabric-worker --connect host:port``
  supervises sessions across lost channels with deterministic jittered
  backoff; the session token issued in ``welcome`` lets the
  coordinator rebind a rejoining worker and re-validate its in-flight
  lease instead of double-executing it (``fabric.leases.revalidated``);
- **coordinator crash-resume** — the journal's owner lock is held for
  the sweep; a killed coordinator's stale lock is broken by
  ``repro sweep --resume``, which re-leases only unjournaled points;
- **read deadlines** — TCP readers bound the time a partially received
  frame may stall, so half-open sockets and slow-loris peers are
  quarantined instead of wedging a reader thread.

Because every point is a pure function of its spec, none of this can
change results: fabric sweeps are bit-identical to serial sweeps, which
the deterministic :class:`~repro.fabric.chaos.FabricChaosPolicy` tests
(worker SIGKILL mid-point, heartbeat blackhole, corrupt frames,
duplicate-completion replay, latency, half-open sockets, slow-loris
frames, asymmetric partitions, signed-frame replay, reconnect churn)
pin in ``tests/fabric/``.
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
    FrameAuthError,
    FrameError,
    FrameSigner,
    decode_frame,
    encode_frame,
    read_frame,
    resolve_fabric_secret,
    write_frame,
)
from repro.fabric.transports import (
    StdioTransport,
    TcpListener,
    TcpTransport,
    WorkerTransport,
)


def __getattr__(name):
    # Lazy: importing repro.fabric.worker here would shadow the
    # ``python -m repro.fabric.worker`` runpy entry in every spawned
    # worker process (sys.modules double-import warning).
    if name == "run_with_reconnect":
        from repro.fabric.worker import run_with_reconnect

        return run_with_reconnect
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FabricChaosPolicy",
    "FabricCoordinator",
    "FabricPolicy",
    "FrameAuthError",
    "FrameError",
    "FrameSigner",
    "PROTOCOL_VERSION",
    "StdioTransport",
    "TcpListener",
    "TcpTransport",
    "WorkerHealth",
    "WorkerTransport",
    "decode_frame",
    "encode_frame",
    "fabric_run_many",
    "fabric_run_telemetry",
    "read_frame",
    "resolve_fabric_secret",
    "run_with_reconnect",
    "write_frame",
]
