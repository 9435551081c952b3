"""The fabric worker process: lease points, run them, stream results.

Launched by the coordinator as ``python -m repro.fabric.worker`` (see
:mod:`repro.fabric.transports`), or supervised across reconnects by
``repro fabric-worker`` (:func:`run_with_reconnect`).  Lifecycle:

1. connect the framed channel — stdio (stdin/stdout pipes) by default,
   or TCP with ``--connect host:port``;
2. handshake: on an authenticated channel, first await the
   coordinator's ``challenge`` frame (verified under the bootstrap
   nonce) and adopt its session nonce; then send ``hello`` carrying
   the worker id, protocol version, hostname and pid — plus the
   session ``token`` and any still-held lease (``resuming``) when
   rejoining after a disconnect; exit on ``reject`` or silence;
3. start a daemon heartbeat thread sharing the send lock;
4. loop: for each ``lease``, run the point via
   :func:`~repro.experiments.parallel.execute_point` exactly like a
   local pool worker (traced, with a fresh tracer and metrics registry,
   only when the lease's ``trace`` asks for it), stamp its manifest
   with this worker's identity, and send a ``result`` frame carrying
   the serialized payloads plus their checksum — or an ``error`` frame
   when the point raises;
5. exit on ``shutdown`` or channel EOF.

Exit codes tell the supervisor loop what happened: ``0`` clean
shutdown, ``2`` handshake rejected, ``3`` malformed coordinator frame,
``5`` channel lost (the coordinator died or the network dropped —
reconnectable), ``6`` chaos-injected disconnect (also reconnectable).

On stdio, ``sys.stdout`` is rebound to stderr before anything else runs
so stray prints (from the simulation, from third-party code) can never
corrupt the frame stream — stdout is reserved exclusively for frames.

A :class:`~repro.fabric.chaos.FabricChaosPolicy` passed via ``--chaos``
makes the worker *hostile on purpose* (SIGKILL itself mid-point, go
dark on heartbeats, emit garbage frames, trickle slow-loris bytes,
drop leases behind an asymmetric partition, replay signed frames,
drop the connection, hang, raise) so the recovery paths are exercised
by real processes, not mocks.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket as socket_module
import sys
import threading
import time
import traceback
from typing import BinaryIO, Optional

from repro.experiments.parallel import (
    ChaosError,
    SupervisorPolicy,
    backoff_delay,
    execute_point,
)
from repro.experiments.records import payload_checksum
from repro.fabric.chaos import FabricChaosPolicy
from repro.fabric.protocol import (
    HEADER_BYTES,
    PROTOCOL_VERSION,
    FrameError,
    FrameSigner,
    decode_spec,
    encode_frame,
    read_frame,
    resolve_fabric_secret,
    write_frame,
)

#: Exit code for a lost channel (coordinator gone) — reconnectable.
EXIT_CHANNEL_LOST = 5

#: Exit code for a chaos-injected disconnect — reconnectable.
EXIT_CHAOS_DISCONNECT = 6


class _ChaosDisconnect(Exception):
    """Raised by the ``disconnect`` chaos action to drop the channel."""


class _Heartbeat(threading.Thread):
    """Daemon thread sending ``heartbeat`` frames at a fixed interval."""

    def __init__(self, stream: BinaryIO, lock: threading.Lock,
                 worker_id: str, interval_s: float,
                 signer: Optional[FrameSigner] = None):
        super().__init__(daemon=True, name="fabric-heartbeat")
        self._stream = stream
        self._lock = lock
        self._worker_id = worker_id
        self._interval_s = interval_s
        self._signer = signer
        self._stop = threading.Event()
        #: Set by chaos ``blackhole``/``halfopen`` to silence the worker.
        self.suppressed = False

    def run(self) -> None:
        """Beat until stopped or the channel dies."""
        while not self._stop.wait(self._interval_s):
            if self.suppressed:
                continue
            try:
                with self._lock:
                    write_frame(self._stream,
                                {"type": "heartbeat",
                                 "worker_id": self._worker_id},
                                signer=self._signer)
            except (OSError, ValueError):
                return

    def stop(self) -> None:
        """Ask the thread to exit at its next tick."""
        self._stop.set()


class FabricWorker:
    """One worker's session over an already-connected framed channel.

    ``signer`` enables authenticated framing (the coordinator must deal
    a challenge before anything else).  ``token``/``pending`` carry a
    previous session's identity and unsent result across a reconnect:
    the token rides in the hello so the coordinator can rebind this
    worker's runtime, ``pending`` names the lease still held (sent as
    the hello's ``resuming`` field, then flushed right after welcome).
    """

    def __init__(self, rx: BinaryIO, tx: BinaryIO, worker_id: str,
                 heartbeat_s: float = 0.25,
                 chaos: Optional[FabricChaosPolicy] = None,
                 protocol: int = PROTOCOL_VERSION,
                 signer: Optional[FrameSigner] = None,
                 token: Optional[str] = None,
                 pending: Optional[dict] = None):
        self.rx = rx
        self.tx = tx
        self.worker_id = worker_id
        self.heartbeat_s = heartbeat_s
        self.chaos = chaos
        self.protocol = protocol
        self.signer = signer
        self.token = token
        #: ``{"lease_id", "key", "frame"}`` for a result the previous
        #: session finished but could not deliver.
        self.pending = pending
        self.host = socket_module.gethostname()
        self._send_lock = threading.Lock()
        self._heartbeat: Optional[_Heartbeat] = None

    def _send(self, message: dict) -> None:
        """Write one frame under the shared send lock."""
        with self._send_lock:
            write_frame(self.tx, message, signer=self.signer)

    def _send_raw(self, payload: bytes) -> None:
        """Write raw bytes (chaos ``corrupt``/``sloworis`` — no framing)."""
        with self._send_lock:
            self.tx.write(payload)
            self.tx.flush()

    def handshake(self) -> bool:
        """Challenge → hello → welcome; False when rejected or cut off.

        On a signed channel the coordinator speaks first: its
        ``challenge`` frame (verified under the empty bootstrap nonce)
        deals the session nonce every later signature is keyed on.
        """
        if self.signer is not None:
            try:
                challenge = read_frame(self.rx, signer=self.signer)
            except FrameError:
                return False
            if challenge is None or challenge.get("type") != "challenge":
                return False
            self.signer.nonce = challenge["nonce"]
        hello = {"type": "hello", "worker_id": self.worker_id,
                 "protocol": self.protocol, "host": self.host,
                 "pid": os.getpid()}
        if self.token is not None:
            hello["token"] = self.token
        if self.pending is not None:
            hello["resuming"] = {"lease_id": self.pending["lease_id"],
                                 "key": self.pending["key"]}
        self._send(hello)
        try:
            answer = read_frame(self.rx, signer=self.signer)
        except FrameError:
            return False
        if answer is None or answer.get("type") != "welcome":
            return False
        token = answer.get("token")
        if isinstance(token, str):
            self.token = token
        return True

    def _flush_pending(self) -> None:
        """Deliver the previous session's unsent result, if any."""
        if self.pending is None:
            return
        frame = self.pending.get("frame")
        self.pending = None
        if frame is not None:
            self._send(frame)

    def _run_lease(self, message: dict) -> None:
        """Run one leased point and stream its result (or error) back.

        Chaos hooks fire around the real computation: ``kill`` replaces
        the result with a SIGKILL, ``blackhole`` silences heartbeats and
        delays the (stale by then) result, ``corrupt`` prefixes it with
        a garbage frame, ``duplicate`` sends it twice, ``latency``
        delays the send, ``halfopen`` goes completely silent without
        closing the socket, ``sloworis`` trickles a partial frame
        slower than the read deadline, ``partition`` drops the lease on
        the floor while heartbeats keep flowing, ``replay`` re-sends
        the identical signed result bytes, ``disconnect`` drops the
        channel after the result so the supervisor loop must rejoin,
        ``hang`` stalls before running (heartbeats keep flowing) and
        ``poison`` makes the point raise.
        """
        lease_id = message["lease_id"]
        key = message["key"]
        attempt = int(message.get("attempt", 0))
        action = (self.chaos.action(key, attempt)
                  if self.chaos is not None else None)
        if action == "kill":
            # Die the hard way, mid-point: no frames, no exit handlers —
            # the coordinator sees EOF and must re-lease.
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "partition":
            # Asymmetric partition: the lease never "arrived", but the
            # heartbeat thread keeps flowing — the coordinator must
            # expire the lease, not wait on a worker that looks alive.
            return
        if action == "halfopen":
            # Go dark without FIN: no heartbeats, no frames, socket
            # open.  Heartbeat liveness (not a blocked read) must
            # surface the loss; linger briefly so the coordinator
            # observes a truly half-open peer, then die without FIN.
            if self._heartbeat is not None:
                self._heartbeat.suppressed = True
            time.sleep(self.chaos.delay_s)
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "sloworis":
            # Trickle a frame: header plus one byte, then stall past
            # the transport's read deadline.  The reader must declare
            # the frame stalled and quarantine us.
            if self._heartbeat is not None:
                self._heartbeat.suppressed = True
            self._send_raw((64).to_bytes(HEADER_BYTES, "big") + b"\x7b")
            time.sleep(self.chaos.delay_s)
            return
        if action == "blackhole" and self._heartbeat is not None:
            self._heartbeat.suppressed = True
        trace = bool(message.get("trace", True))
        try:
            if action == "poison":
                raise ChaosError(f"chaos poisoned {key} attempt {attempt}")
            if action == "hang":
                time.sleep(self.chaos.delay_s)
            spec = decode_spec(message["spec"])
            cache_dir = (message.get("cache_dir")
                         or os.environ.get("REPRO_CACHE_DIR"))
            point = execute_point(spec, cache_dir,
                                  bool(message["use_cache"]), trace)
        except FrameError:
            raise
        except Exception:
            self._send({"type": "error", "lease_id": lease_id, "key": key,
                        "error": traceback.format_exc(limit=20)})
            return
        manifest = None
        if point.manifest is not None:
            manifest = point.manifest.to_dict()
            manifest["worker_id"] = self.worker_id
            manifest["worker_host"] = self.host
        payload = point.result.to_dict()
        result = {"type": "result", "lease_id": lease_id, "key": key,
                  "result": payload, "checksum": payload_checksum(payload),
                  "manifest": manifest}
        if trace:
            result["trace"] = point.trace or {}
            result["metrics"] = point.metrics or {}
        if action == "latency":
            # A slow link, not a dead one: leases must tolerate it.
            time.sleep(self.chaos.latency_s)
        if action == "blackhole":
            # Sit on the finished result past the heartbeat timeout so
            # the coordinator declares this worker dead and re-leases;
            # then send the stale completion to exercise dedup.
            time.sleep(self.chaos.delay_s)
            if self._heartbeat is not None:
                self._heartbeat.suppressed = False
        if action == "corrupt":
            self._send_raw(b"\xff\xfe\xfd\xfcnot-a-frame")
            return
        if action == "replay":
            # Re-send the *identical* wire bytes: on a signed channel
            # the second copy carries a stale sequence number and must
            # be rejected (fabric.auth.rejected) without losing the
            # first, already-recorded completion.
            with self._send_lock:
                frame = encode_frame(result, signer=self.signer)
                self.tx.write(frame)
                self.tx.flush()
                self.tx.write(frame)
                self.tx.flush()
            return
        try:
            self._send(result)
        except (OSError, ValueError):
            # The channel died with a finished result in hand: stash it
            # so a reconnected session can deliver it exactly once.
            self.pending = {"lease_id": lease_id, "key": key,
                            "frame": result}
            raise OSError("channel lost with undelivered result")
        if action == "duplicate":
            self._send(result)
        if action == "disconnect":
            raise _ChaosDisconnect

    def serve(self) -> int:
        """Run the session to completion; returns the exit code."""
        try:
            if not self.handshake():
                return 2
        except (OSError, ValueError):
            # Channel cut mid-handshake (peer reset, coordinator gone):
            # reconnectable, not a rejection.
            return EXIT_CHANNEL_LOST
        self._heartbeat = _Heartbeat(self.tx, self._send_lock,
                                     self.worker_id, self.heartbeat_s,
                                     signer=self.signer)
        self._heartbeat.start()
        try:
            self._flush_pending()
            while True:
                try:
                    message = read_frame(self.rx, signer=self.signer)
                except FrameError:
                    return 3
                if message is None:
                    # EOF without a shutdown frame: the coordinator died
                    # or the network dropped — reconnectable.
                    return EXIT_CHANNEL_LOST
                if message.get("type") == "shutdown":
                    return 0
                if message.get("type") == "lease":
                    self._run_lease(message)
        except _ChaosDisconnect:
            return EXIT_CHAOS_DISCONNECT
        except (OSError, ValueError):
            # Channel died under us (coordinator gone): reconnectable.
            return EXIT_CHANNEL_LOST
        finally:
            self._heartbeat.stop()


def _connect_tcp(address: str
                 ) -> tuple[socket_module.socket, BinaryIO, BinaryIO]:
    """Dial the coordinator's listener; returns (sock, rx, tx)."""
    host, _, port = address.rpartition(":")
    sock = socket_module.create_connection((host, int(port)), timeout=30.0)
    sock.settimeout(None)
    return sock, sock.makefile("rb"), sock.makefile("wb")


def run_with_reconnect(address: str, worker_id: str,
                       heartbeat_s: float = 0.25,
                       chaos: Optional[FabricChaosPolicy] = None,
                       protocol: int = PROTOCOL_VERSION,
                       secret: Optional[str] = None,
                       max_reconnects: int = 10,
                       policy: Optional[SupervisorPolicy] = None) -> int:
    """Serve sessions against ``address``, rejoining after disconnects.

    The supervisor loop behind ``repro fabric-worker``: each lost
    channel (coordinator crash, network drop, chaos disconnect) or
    refused dial costs one reconnect attempt and a deterministic
    jittered backoff (:func:`~repro.experiments.parallel.backoff_delay`
    keyed on the worker id — two workers rejoining the same coordinator
    desynchronize, yet a replay is identical).  The session token and
    any undelivered result carry across attempts so the coordinator
    re-validates the worker's lease instead of double-executing it.
    Returns the final session's exit code (``0`` on clean shutdown).
    """
    policy = policy or SupervisorPolicy()
    token: Optional[str] = None
    pending: Optional[dict] = None
    attempt = 0
    code = EXIT_CHANNEL_LOST
    while True:
        worker = None
        try:
            sock, rx, tx = _connect_tcp(address)
        except OSError:
            code = EXIT_CHANNEL_LOST
        else:
            signer = FrameSigner(secret) if secret is not None else None
            worker = FabricWorker(rx, tx, worker_id,
                                  heartbeat_s=heartbeat_s, chaos=chaos,
                                  protocol=protocol, signer=signer,
                                  token=token, pending=pending)
            code = worker.serve()
            token = worker.token or token
            pending = worker.pending
            for stream in (rx, tx):
                try:
                    stream.close()
                except OSError:
                    pass
            try:
                sock.close()
            except OSError:
                pass
        if code not in (EXIT_CHANNEL_LOST, EXIT_CHAOS_DISCONNECT):
            return code
        attempt += 1
        if attempt > max_reconnects:
            print(f"fabric-worker {worker_id}: giving up after "
                  f"{max_reconnects} reconnect attempts", file=sys.stderr)
            return code
        time.sleep(backoff_delay(worker_id, attempt, policy))


def main(argv: Optional[list] = None) -> int:
    """Entry point for ``python -m repro.fabric.worker``."""
    parser = argparse.ArgumentParser(
        prog="repro.fabric.worker",
        description="fabric worker process (launched by the coordinator)")
    parser.add_argument("--worker-id", required=True,
                        help="identity announced in the hello frame")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="dial a TCP coordinator instead of stdio")
    parser.add_argument("--heartbeat", type=float, default=0.25,
                        help="seconds between heartbeat frames")
    parser.add_argument("--chaos", default=None,
                        help="FabricChaosPolicy as JSON (test-only)")
    parser.add_argument("--protocol", type=int, default=PROTOCOL_VERSION,
                        help="override the announced protocol version "
                             "(handshake-rejection tests)")
    parser.add_argument("--secret-file", default=None, metavar="PATH",
                        help="file holding the shared fabric secret "
                             "(default: $REPRO_FABRIC_SECRET)")
    parser.add_argument("--max-reconnects", type=int, default=0,
                        metavar="N",
                        help="TCP only: rejoin the coordinator up to N "
                             "times after a lost channel (default 0)")
    args = parser.parse_args(argv)

    try:
        secret = resolve_fabric_secret(args.secret_file)
    except ValueError as error:
        print(f"fabric-worker: {error}", file=sys.stderr)
        return 2

    chaos = (FabricChaosPolicy.from_json(args.chaos)
             if args.chaos else None)

    if args.connect is not None:
        if args.max_reconnects > 0:
            return run_with_reconnect(args.connect, args.worker_id,
                                      heartbeat_s=args.heartbeat,
                                      chaos=chaos, protocol=args.protocol,
                                      secret=secret,
                                      max_reconnects=args.max_reconnects)
        _sock, rx, tx = _connect_tcp(args.connect)
    else:
        rx, tx = sys.stdin.buffer, sys.stdout.buffer
        # stdout carries frames and nothing else: reroute every print
        # (ours or the simulation's) to stderr.
        sys.stdout = sys.stderr

    signer = FrameSigner(secret) if secret is not None else None
    worker = FabricWorker(rx, tx, args.worker_id,
                          heartbeat_s=args.heartbeat, chaos=chaos,
                          protocol=args.protocol, signer=signer)
    code = worker.serve()
    # Without a supervisor loop a lost channel is a plain exit, exactly
    # as before reconnect support existed.
    return 0 if code == EXIT_CHANNEL_LOST else code


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
