"""The fabric coordinator: lease points to workers, survive their deaths.

:class:`FabricCoordinator` is the distributed
:class:`~repro.experiments.parallel.Executor` (DESIGN.md §8): the sweep
driver (:func:`~repro.experiments.parallel.run_points`) owns attempts,
backoff, deadlines, dedup and the journal, and this class owns the
fleet:

- **Leases** — each ready worker holds at most one lease on one
  :class:`~repro.experiments.parallel.RunSpec` point.  When the
  driver's deadline passes it cancels the lease (``lease-expired``)
  without killing the worker — a late-but-valid completion is still
  accepted.
- **Heartbeats** — a worker silent past ``heartbeat_timeout_s`` is
  marked unresponsive and its lease fails back to the driver; it is
  restored to the ready pool if it comes back, quarantined after
  ``failure_threshold`` strikes.
- **Quarantine** — a malformed frame (or a checksum-mismatched result)
  condemns the *worker*, never the sweep: its lease fails back and the
  channel is closed with the bounded teardown ladder.
- **Idempotent completion** — a duplicate completion (re-leased point
  finishing twice, chaos replay) is counted and dropped, so the
  journal the driver writes records every point exactly once.
- **Handshake, auth and reconnect** — protocol-version handshake,
  signed frames, and session tokens that let a rejoining worker
  re-validate its in-flight lease (DESIGN.md §8).

When every worker is lost or quarantined (or ``REPRO_SERIAL=1``
forbids spawning), the coordinator is no longer usable and the driver
falls back to the local pool (``local-fallback``).  Because every
point is a pure function of its spec, none of this can change results:
a fabric sweep is bit-identical to a serial sweep, and ``events`` /
``worker_health()`` (mirrored to ``fabric.*`` metrics) are descriptive
telemetry only.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.experiments.parallel import (
    Executor,
    PointTelemetry,
    RunOptions,
    RunSpec,
    SupervisorPolicy,
    PoolExecutor,
    SweepPoint,
    run_points,
    serial_forced,
)
from repro.experiments.records import ConfigResult, payload_checksum
from repro.fabric.chaos import FabricChaosPolicy
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameAuthError,
    FrameError,
)
from repro.fabric.transports import (
    CHANNEL_CLOSED,
    DEFAULT_READ_DEADLINE_S,
    TcpListener,
    WorkerTransport,
    close_transports,
    launch_stdio_workers,
    launch_tcp_workers,
)
from repro.obs import metrics as _metrics
from repro.obs.manifest import RunManifest

#: Transport names accepted by ``FabricPolicy.transport``.
TRANSPORTS = ("stdio", "tcp")


@dataclass(frozen=True)
class FabricPolicy:
    """Fabric-layer knobs: worker fleet shape, liveness, transports.

    Retries, backoff, point deadlines, the strike threshold and the
    polling tick are the driver's
    :class:`~repro.experiments.parallel.SupervisorPolicy`, shared with
    the local pool, so a sweep degrades from distributed to local
    without changing its retry semantics.
    """

    workers: int = 2
    transport: str = "stdio"
    heartbeat_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    handshake_timeout_s: float = 10.0
    close_timeout_s: float = 5.0
    #: Shared secret enabling authenticated framing (``None`` = off).
    secret: Optional[str] = None
    #: ``host:port`` to bind the TCP listener on for *external* workers
    #: (``repro fabric-worker --connect``); no local fleet is spawned.
    bind: Optional[str] = None
    #: Mid-frame read deadline on TCP channels (half-open detection).
    read_deadline_s: float = DEFAULT_READ_DEADLINE_S
    #: How long a bind-mode coordinator waits with zero usable workers
    #: (fleet still joining, or rejoining after a partition) before
    #: degrading to the local fallback.
    accept_grace_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if self.heartbeat_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat intervals must be positive")
        if self.heartbeat_timeout_s <= self.heartbeat_s:
            raise ValueError("heartbeat_timeout_s must exceed heartbeat_s")
        if self.handshake_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.bind is not None and self.transport != "tcp":
            raise ValueError("bind requires the tcp transport")
        if self.read_deadline_s <= 0:
            raise ValueError("read_deadline_s must be positive")
        if self.accept_grace_s < 0:
            raise ValueError("accept_grace_s must be >= 0")


@dataclass
class WorkerHealth:
    """Public health snapshot of one worker (see ``worker_health()``)."""

    name: str
    host: str = ""
    pid: Optional[int] = None
    state: str = "connecting"
    completed: int = 0
    failures: int = 0
    duplicates: int = 0
    reconnects: int = 0
    revalidated: int = 0


#: Worker states.  ``connecting`` → ``ready`` on handshake; ``ready`` ↔
#: ``unresponsive`` on heartbeat loss/recovery; ``lost`` (channel EOF,
#: dead process, handshake timeout), ``quarantined`` (malformed frame,
#: bad checksum, failure threshold) and ``rejected`` (protocol
#: mismatch) are terminal.
_TERMINAL_STATES = frozenset({"lost", "quarantined", "rejected"})


class _WorkerRuntime(WorkerHealth):
    """A worker's live state: its health plus transport, clocks, lease."""

    def __init__(self, transport: WorkerTransport, now: float,
                 handshake_timeout_s: float):
        super().__init__(name=transport.name)
        self.transport = transport
        self.token: Optional[str] = None
        self.point = None
        self.last_beat = now
        self.last_strike = now
        self.handshake_deadline = now + handshake_timeout_s

    def health(self) -> WorkerHealth:
        """A detached snapshot of this worker's health."""
        return WorkerHealth(**{field.name: getattr(self, field.name)
                               for field in fields(WorkerHealth)})


class FabricCoordinator(Executor):
    """Distributed executor for :class:`RunSpec` points over transports.

    Drive it with :func:`~repro.experiments.parallel.run_points` (or
    ``run_sweep``).  Pass prebuilt ``transports`` (tests), or let
    ``fabric.workers``/``fabric.transport`` spawn the fleet each run.
    Points come back as :class:`PointTelemetry` stamped with the
    producing worker's id.
    """

    name = "fabric"
    fallback_event = "local-fallback"

    def __init__(self, transports: Optional[Sequence[WorkerTransport]] = None,
                 fabric: Optional[FabricPolicy] = None,
                 chaos: Optional[FabricChaosPolicy] = None):
        super().__init__(chaos)
        self.fabric = fabric or FabricPolicy()
        self._given_transports = list(transports) if transports else None
        self._workers: list[_WorkerRuntime] = []
        self._listener: Optional[TcpListener] = None
        #: Session token → runtime, for reconnect rebinding.
        self._tokens: dict[str, _WorkerRuntime] = {}
        self._accept_counter = 0
        self._lease_counter = 0
        self._options: Optional[RunOptions] = None
        #: Points leased this run, by key (results and resumes name keys).
        self._by_key: dict[str, SweepPoint] = {}
        self._completed: set[str] = set()
        self._outcomes: list = []
        self._grace_deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # telemetry plumbing

    def worker_health(self) -> list[WorkerHealth]:
        """Per-worker health snapshots, in connection order."""
        return [worker.health() for worker in self._workers]

    # ------------------------------------------------------------------
    # fleet lifecycle

    def listen(self) -> TcpListener:
        """Bind (or return) the TCP accept socket.

        Called eagerly by the CLI in ``--bind`` mode so the bound
        address can be printed before the sweep starts; ``open`` calls
        it lazily otherwise.  The listener carries the fabric secret
        and read deadline to every accepted transport.
        """
        if self._listener is None:
            host, port = "127.0.0.1", 0
            if self.fabric.bind is not None:
                host, _, port_text = self.fabric.bind.rpartition(":")
                port = int(port_text)
            self._listener = TcpListener(
                host, port, secret=self.fabric.secret,
                read_deadline_s=self.fabric.read_deadline_s)
        return self._listener

    def _spawn(self, now: float) -> None:
        chaos_json = self.chaos.to_json() if self.chaos is not None else None
        if self._given_transports is not None:
            transports = self._given_transports
            for transport in transports:
                # Prebuilt signed channels that were never challenged
                # get their session nonce dealt now (idempotence guard:
                # a challenge is always a signer's first send).
                if (transport.signer is not None
                        and transport.signer.send_seq == 0):
                    transport.issue_challenge()
        elif self.fabric.transport == "tcp":
            listener = self.listen()
            if self.fabric.bind is not None:
                # Bind mode: no local fleet — external workers join via
                # ``repro fabric-worker --connect`` and are accepted by
                # ``_accept_pending`` as they dial in.
                transports = []
            else:
                transports = launch_tcp_workers(
                    self.fabric.workers, listener,
                    heartbeat_s=self.fabric.heartbeat_s,
                    chaos_json=chaos_json)
        else:
            transports = launch_stdio_workers(
                self.fabric.workers, heartbeat_s=self.fabric.heartbeat_s,
                chaos_json=chaos_json, secret=self.fabric.secret)
        self._workers = [
            _WorkerRuntime(transport, now, self.fabric.handshake_timeout_s)
            for transport in transports]
        self._event("fleet-started", workers=len(self._workers),
                    transport=self.fabric.transport,
                    bind=self.fabric.bind)

    def _accept_pending(self, now: float) -> None:
        """Admit workers dialing in mid-sweep (joins and reconnects)."""
        if self._listener is None:
            return
        while True:
            self._accept_counter += 1
            try:
                transport = self._listener.poll_accept(
                    name=f"joined-{self._accept_counter}")
            except OSError:  # pragma: no cover - listener torn down
                return
            if transport is None:
                self._accept_counter -= 1
                return
            runtime = _WorkerRuntime(transport, now,
                                     self.fabric.handshake_timeout_s)
            self._workers.append(runtime)
            self._event("worker-accepted", worker=transport.name)

    def _shutdown(self) -> None:
        for worker in self._workers:
            if worker.state not in _TERMINAL_STATES:
                worker.transport.send({"type": "shutdown"})
        close_transports([worker.transport for worker in self._workers],
                         timeout_s=self.fabric.close_timeout_s)
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def _usable_workers(self) -> list[_WorkerRuntime]:
        return [worker for worker in self._workers
                if worker.state not in _TERMINAL_STATES]

    def _idle_workers(self) -> list[_WorkerRuntime]:
        return [worker for worker in self._workers
                if worker.state == "ready" and worker.point is None]

    def _fail(self, point, error: BaseException) -> None:
        """Report a failed lease to the driver (next ``poll``)."""
        self._outcomes.append((point, error))

    def _release_lease(self, worker: _WorkerRuntime):
        point = worker.point
        worker.point = None
        if point is not None and not point.done:
            return point
        return None

    def _condemn(self, worker: _WorkerRuntime, state: str, kind: str,
                 reason: str) -> None:
        """Move a worker to a terminal state and fail its lease."""
        if worker.state in _TERMINAL_STATES:
            return
        worker.state = state
        self._event(kind, worker=worker.name, reason=reason)
        point = self._release_lease(worker)
        worker.transport.close(timeout_s=self.fabric.close_timeout_s)
        if point is not None:
            self._fail(point, RuntimeError(f"{worker.name}: {reason}"))

    def _lose(self, worker: _WorkerRuntime, reason: str) -> None:
        self._condemn(worker, "lost", "worker-lost", reason)

    def _quarantine(self, worker: _WorkerRuntime, reason: str) -> None:
        self._condemn(worker, "quarantined", "worker-quarantined", reason)

    def _strike(self, worker: _WorkerRuntime, reason: str) -> None:
        """Count one failure; quarantine at the policy threshold."""
        worker.failures += 1
        if worker.failures >= self._options.policy.failure_threshold:
            self._quarantine(worker, f"failure threshold: {reason}")

    # ------------------------------------------------------------------
    # the executor interface

    def open(self, options: RunOptions, points: int) -> None:
        """Spawn (or adopt) the fleet, unless ``REPRO_SERIAL`` forbids it."""
        self._options = options
        self._by_key = {}
        self._completed = set()
        self._outcomes = []
        self._grace_deadline = None
        self._workers = []
        if serial_forced() and self._given_transports is None:
            return  # REPRO_SERIAL forbids spawning worker processes
        self._spawn(time.monotonic())

    def usable(self) -> bool:
        """True while a worker is usable (or joins may still arrive)."""
        if self._usable_workers():
            self._grace_deadline = None
            return True
        if self.fabric.bind is not None and self._listener is not None:
            # Bind mode has no local fleet: external workers are still
            # joining (or rejoining after a partition).  Wait out the
            # accept grace before degrading.
            now = time.monotonic()
            if self._grace_deadline is None:
                self._grace_deadline = now + self.fabric.accept_grace_s
            return now < self._grace_deadline
        return False

    def slots(self) -> int:
        """Ready workers holding no lease."""
        return len(self._idle_workers())

    def submit(self, point: SweepPoint) -> bool:
        """Lease ``point`` to the first idle ready worker."""
        idle = self._idle_workers()
        if not idle:
            return False
        worker = idle[0]
        self._lease_counter += 1
        lease = {"type": "lease", "lease_id": f"L{self._lease_counter}",
                 "key": point.key, "attempt": point.attempt,
                 "spec": _encode_spec(point.spec),
                 "use_cache": self._options.use_cache,
                 "trace": self._options.trace}
        if self._options.cache_dir is not None:
            lease["cache_dir"] = self._options.cache_dir
        if not worker.transport.send(lease):
            self._lose(worker, "send failed")
            return False
        worker.point = point
        self._by_key[point.key] = point
        self._event("lease-granted", worker=worker.name, key=point.key,
                    attempt=point.attempt)
        return True

    def poll(self, timeout: float) -> list:
        """Wait one tick, then admit joins, read frames, check liveness."""
        if not self._outcomes:
            time.sleep(timeout)
        now = time.monotonic()
        self._accept_pending(now)
        self._poll_frames(now)
        self._scan_liveness(now)
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def cancel(self, point: SweepPoint) -> None:
        """Expire the lease; the worker keeps its computation."""
        timeout = self._options.policy.point_timeout_s
        self._event("lease-expired", key=point.key, attempt=point.attempt,
                    timeout_s=timeout)
        # The worker keeps computing; only the lease is revoked.  Its
        # eventual completion is accepted (if first) or deduplicated
        # (if the re-lease won the race).
        for worker in self._workers:
            if worker.point is point:
                worker.point = None
        self._fail(point, TimeoutError(
            f"lease on {point.key} exceeded {timeout}s"))

    def close(self) -> None:
        """Drain racing frames into the timeline, then shut down."""
        # One last drain so frames that raced the finish line
        # (duplicate replays of the final point, trailing heartbeats)
        # still land in the event timeline.
        self._poll_frames(time.monotonic())
        self._shutdown()

    def fallback(self) -> Optional[Executor]:
        """The local pool (which the driver runs in-process when one
        worker is all it would get)."""
        return PoolExecutor()

    # ------------------------------------------------------------------
    # frame handling

    def _complete(self, point: SweepPoint, worker_name: str,
                  message: dict) -> None:
        manifest = None
        raw = message.get("manifest")
        if isinstance(raw, dict):
            try:
                manifest = RunManifest.from_dict(raw)
            except (ValueError, TypeError):
                manifest = None
        trace = metrics = None
        if self._options.trace:
            trace = message.get("trace")
            trace = trace if isinstance(trace, dict) else {}
            metrics = message.get("metrics")
            metrics = metrics if isinstance(metrics, dict) else {}
        self._completed.add(point.key)
        self._outcomes.append((point, PointTelemetry(
            spec=point.spec, result=ConfigResult.from_dict(message["result"]),
            manifest=manifest, trace=trace, metrics=metrics,
            worker=worker_name)))

    def _mark_alive(self, worker: _WorkerRuntime, now: float) -> None:
        worker.last_beat = now
        if worker.state == "unresponsive":
            worker.state = "ready"
            self._event("worker-recovered", worker=worker.name)

    def _reject(self, worker: _WorkerRuntime, reason: str) -> None:
        worker.transport.send({"type": "reject", "reason": reason})
        worker.state = "rejected"
        self._event("worker-rejected", worker=worker.name, reason=reason)
        worker.transport.close(timeout_s=self.fabric.close_timeout_s)

    def _handle_hello(self, worker: _WorkerRuntime, message: dict,
                      now: float) -> None:
        if message["protocol"] != PROTOCOL_VERSION:
            self._reject(worker, f"protocol {message['protocol']} != "
                                 f"{PROTOCOL_VERSION}")
            return
        token = message.get("token")
        previous = (self._tokens.get(token)
                    if isinstance(token, str) else None)
        old_point = None
        if previous is not None and previous is not worker:
            if previous.state in ("quarantined", "rejected"):
                self._reject(worker, f"resume refused: session was "
                                     f"{previous.state}")
                return
            # The reconnecting worker supersedes its old channel: carry
            # the counters across, drop the dead transport without a
            # strike, and remember any lease it still nominally held.
            if previous.state not in _TERMINAL_STATES:
                previous.state = "lost"
                self._event("worker-superseded", worker=previous.name)
            old_point = previous.point
            previous.point = None
            previous.transport.close(timeout_s=self.fabric.close_timeout_s)
            worker.completed = previous.completed
            worker.failures = previous.failures
            worker.duplicates = previous.duplicates
            worker.revalidated = previous.revalidated
            worker.reconnects = previous.reconnects + 1
            self._event("worker-reconnected",
                        worker=message["worker_id"],
                        reconnects=worker.reconnects)
            if _metrics.ACTIVE:
                _metrics.inc("fabric.reconnect.attempts")
        worker.name = message["worker_id"]
        worker.transport.name = worker.name
        worker.host = message["host"]
        worker.pid = message["pid"]
        if previous is not None:
            worker.token = token
        else:
            worker.token = f"T{os.urandom(12).hex()}"
        self._tokens[worker.token] = worker
        if not worker.transport.send({"type": "welcome",
                                      "protocol": PROTOCOL_VERSION,
                                      "token": worker.token}):
            self._lose(worker, "welcome send failed")
            return
        worker.state = "ready"
        worker.last_beat = now
        self._event("worker-ready", worker=worker.name, host=worker.host,
                    pid=worker.pid)
        self._revalidate(worker, message.get("resuming"), old_point, now)

    def _revalidate(self, worker: _WorkerRuntime, resuming,
                    old_point, now: float) -> None:
        """Re-validate a resumed worker's in-flight lease.

        The worker claims it still holds a lease (its hello carried
        ``resuming``) and will deliver the result momentarily.  When
        the point is still open and un-leased, re-grant it — no
        double-execution.  When it has finished or been re-leased
        elsewhere, the incoming result simply dedups.  Any *other*
        lease the old channel held fails back to the driver.
        """
        if isinstance(resuming, dict):
            point = self._by_key.get(resuming.get("key"))
            if (point is not None and not point.done
                    and not any(peer.point is point
                                for peer in self._workers)):
                worker.point = point
                point.dispatched(now)
                worker.revalidated += 1
                self._event("lease-revalidated", worker=worker.name,
                            key=point.key, attempt=point.attempt)
                if _metrics.ACTIVE:
                    _metrics.inc("fabric.leases.revalidated")
        if (old_point is not None and old_point.running
                and not any(peer.point is old_point
                            for peer in self._workers)):
            self._fail(old_point, RuntimeError(
                f"{worker.name}: lease orphaned by reconnect"))

    def _handle_result(self, worker: _WorkerRuntime, message: dict,
                       now: float) -> None:
        self._mark_alive(worker, now)
        key = message["key"]
        if key in self._completed:
            worker.duplicates += 1
            self._event("duplicate-completion", worker=worker.name, key=key)
            if worker.point is not None and worker.point.key == key:
                worker.point = None
            return
        if payload_checksum(message["result"]) != message["checksum"]:
            self._quarantine(worker, f"checksum mismatch on {key}")
            return
        point = self._by_key.get(key)
        if point is None or point.done:
            return
        if worker.point is point:
            worker.point = None
        worker.completed += 1
        self._complete(point, worker.name, message)

    def _handle_error(self, worker: _WorkerRuntime, message: dict,
                      now: float) -> None:
        self._mark_alive(worker, now)
        key = message["key"]
        if worker.point is not None and worker.point.key == key:
            worker.point = None
        self._strike(worker, f"error on {key}")
        point = self._by_key.get(key)
        if point is not None and point.running:
            self._fail(point, RuntimeError(message["error"]))

    def _poll_frames(self, now: float) -> None:
        for worker in self._workers:
            if worker.state in _TERMINAL_STATES:
                continue
            for item in worker.transport.poll():
                if worker.state in _TERMINAL_STATES:
                    break
                if item is CHANNEL_CLOSED:
                    self._lose(worker, "channel closed")
                    break
                if isinstance(item, FrameAuthError):
                    # Forged, replayed, or cross-sweep frame: reject the
                    # worker (its lease fails back), never the sweep.
                    if _metrics.ACTIVE:
                        _metrics.inc("fabric.auth.rejected")
                    self._condemn(worker, "rejected",
                                  "worker-auth-rejected", str(item))
                    break
                if isinstance(item, FrameError):
                    self._quarantine(worker, f"malformed frame: {item}")
                    break
                kind = item.get("type")
                if kind == "hello":
                    self._handle_hello(worker, item, now)
                elif kind == "heartbeat":
                    self._mark_alive(worker, now)
                elif kind == "result":
                    self._handle_result(worker, item, now)
                elif kind == "error":
                    self._handle_error(worker, item, now)
                # welcome/reject/lease/shutdown are coordinator → worker
                # frames; receiving one here is harmless noise.

    def _scan_liveness(self, now: float) -> None:
        for worker in self._workers:
            if worker.state in _TERMINAL_STATES:
                continue
            if not worker.transport.alive():
                self._lose(worker, "process died")
                continue
            if (worker.state == "connecting"
                    and now >= worker.handshake_deadline):
                self._lose(worker, "handshake timeout")
                continue
            if (worker.state == "ready"
                    and now - worker.last_beat
                    > self.fabric.heartbeat_timeout_s):
                worker.state = "unresponsive"
                worker.last_strike = now
                self._event("worker-unresponsive", worker=worker.name,
                            silent_s=round(now - worker.last_beat, 3))
                point = self._release_lease(worker)
                self._strike(worker, "heartbeat timeout")
                if point is not None and point.running:
                    self._fail(point, TimeoutError(
                        f"{worker.name} heartbeat timeout"))
            elif (worker.state == "unresponsive"
                    and now - worker.last_strike
                    > self.fabric.heartbeat_timeout_s):
                # Continued silence escalates: each further timeout
                # window is another strike, so a permanently dark
                # worker reaches the quarantine threshold instead of
                # parking in limbo forever.
                worker.last_strike = now
                self._strike(worker, "continued silence")


def _encode_spec(spec: RunSpec) -> str:
    """Late import shim so protocol stays import-light in the worker."""
    from repro.fabric.protocol import encode_spec

    return encode_spec(spec)


# ----------------------------------------------------------------------
# stable names over the driver
#
# ``fabric_run_many`` and ``fabric_run_telemetry`` keep their historical
# signatures and return types because the committed perf harness
# (benchmarks/perf/session.py) imports them.  Each is one call into the
# driver.


def fabric_run_many(specs: Sequence[RunSpec],
                    workers: int = 2, transport: str = "stdio",
                    policy: Optional[SupervisorPolicy] = None,
                    fabric: Optional[FabricPolicy] = None,
                    chaos: Optional[FabricChaosPolicy] = None,
                    use_cache: bool = True,
                    cache_dir: Optional[Union[str, Path]] = None,
                    on_result: Optional[Callable] = None,
                    coordinator: Optional[FabricCoordinator] = None
                    ) -> list[ConfigResult]:
    """:func:`run_points` across the fabric, results only."""
    return [point.result for point in run_points(
        specs, coordinator or FabricCoordinator(
            fabric=fabric or FabricPolicy(workers=workers,
                                          transport=transport),
            chaos=chaos),
        policy=policy, use_cache=use_cache, cache_dir=cache_dir,
        on_result=on_result and (
            lambda spec, point: on_result(spec, point.result)))]


def fabric_run_telemetry(specs: Sequence[RunSpec],
                         workers: int = 2, transport: str = "stdio",
                         policy: Optional[SupervisorPolicy] = None,
                         fabric: Optional[FabricPolicy] = None,
                         chaos: Optional[FabricChaosPolicy] = None,
                         use_cache: bool = True,
                         cache_dir: Optional[Union[str, Path]] = None,
                         coordinator: Optional[FabricCoordinator] = None
                         ) -> list[PointTelemetry]:
    """:func:`run_points` across the fabric, traced."""
    return run_points(
        specs, coordinator or FabricCoordinator(
            fabric=fabric or FabricPolicy(workers=workers,
                                          transport=transport),
            chaos=chaos),
        policy=policy, trace=True, use_cache=use_cache, cache_dir=cache_dir)


__all__ = [
    "FabricCoordinator",
    "FabricPolicy",
    "TRANSPORTS",
    "WorkerHealth",
    "fabric_run_many",
    "fabric_run_telemetry",
]
