"""The fabric worker process: lease points, run them, stream results.

Launched by the coordinator as ``python -m repro.fabric.worker`` over
stdio (see :mod:`repro.fabric.transports`).  Lifecycle:

1. handshake: send ``hello`` carrying the worker id, protocol version,
   hostname and pid; exit on ``reject`` or silence;
2. start a daemon heartbeat thread sharing the send lock;
3. loop: for each ``lease``, run the point via
   :func:`~repro.experiments.parallel.execute_point` exactly like a
   local pool worker (traced, with a fresh tracer and metrics registry,
   only when the lease's ``trace`` asks for it), stamp its manifest
   with this worker's identity, and send a ``result`` frame carrying
   the serialized payloads plus their checksum — or an ``error`` frame
   when the point raises;
4. exit on ``shutdown`` or channel EOF.

Exit codes: ``0`` clean shutdown or a lost channel (the coordinator is
gone), ``2`` handshake rejected, ``3`` malformed coordinator frame.

``sys.stdout`` is rebound to stderr before anything else runs so stray
prints (from the simulation, from third-party code) can never corrupt
the frame stream — stdout is reserved exclusively for frames.

A :class:`~repro.fabric.chaos.FabricChaosPolicy` passed via ``--chaos``
makes the worker *hostile on purpose* (SIGKILL itself mid-point, go
dark on heartbeats, emit garbage frames, drop leases behind an
asymmetric partition, hang, raise) so the recovery paths are exercised
by real processes, not mocks.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import time
import traceback
from typing import BinaryIO, Optional

from repro.experiments.parallel import ChaosError, execute_point
from repro.experiments.records import payload_checksum
from repro.fabric.chaos import FabricChaosPolicy
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    decode_spec,
    read_frame,
    write_frame,
)


class _Heartbeat(threading.Thread):
    """Daemon thread sending ``heartbeat`` frames at a fixed interval."""

    def __init__(self, stream: BinaryIO, lock: threading.Lock,
                 worker_id: str, interval_s: float):
        super().__init__(daemon=True, name="fabric-heartbeat")
        self._stream = stream
        self._lock = lock
        self._worker_id = worker_id
        self._interval_s = interval_s
        self._stop = threading.Event()
        #: Set by chaos ``blackhole`` to silence the worker.
        self.suppressed = False

    def run(self) -> None:
        """Beat until stopped; end the process when the channel dies.

        A failed write means the coordinator is gone, so the point in
        flight has no one to report to: exit at once with the lost
        channel's code instead of finishing it.
        """
        while not self._stop.wait(self._interval_s):
            if self.suppressed:
                continue
            try:
                with self._lock:
                    write_frame(self._stream,
                                {"type": "heartbeat",
                                 "worker_id": self._worker_id})
            except OSError:
                os._exit(0)
            except ValueError:
                return

    def stop(self) -> None:
        """Ask the thread to exit at its next tick."""
        self._stop.set()


class FabricWorker:
    """One worker's session over an already-connected framed channel."""

    def __init__(self, rx: BinaryIO, tx: BinaryIO, worker_id: str,
                 heartbeat_s: float = 0.25,
                 chaos: Optional[FabricChaosPolicy] = None,
                 protocol: int = PROTOCOL_VERSION):
        self.rx = rx
        self.tx = tx
        self.worker_id = worker_id
        self.heartbeat_s = heartbeat_s
        self.chaos = chaos
        self.protocol = protocol
        self.host = socket.gethostname()
        self._send_lock = threading.Lock()
        self._heartbeat: Optional[_Heartbeat] = None

    def _send(self, message: dict) -> None:
        """Write one frame under the shared send lock."""
        with self._send_lock:
            write_frame(self.tx, message)

    def handshake(self) -> bool:
        """Hello → welcome; False when rejected or cut off."""
        self._send({"type": "hello", "worker_id": self.worker_id,
                    "protocol": self.protocol, "host": self.host,
                    "pid": os.getpid()})
        try:
            answer = read_frame(self.rx)
        except FrameError:
            return False
        return answer is not None and answer.get("type") == "welcome"

    def _run_lease(self, message: dict) -> None:
        """Run one leased point and stream its result (or error) back.

        Chaos hooks fire around the real computation: ``kill`` replaces
        the result with a SIGKILL, ``blackhole`` silences heartbeats and
        delays the (stale by then) result, ``corrupt`` replaces it with
        a garbage frame, ``duplicate`` sends it twice, ``latency``
        delays the send, ``partition`` drops the lease on the floor
        while heartbeats keep flowing, ``hang`` stalls before running
        (heartbeats keep flowing) and ``poison`` makes the point raise.
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
            with self._send_lock:
                self.tx.write(b"\xff\xfe\xfd\xfcnot-a-frame")
                self.tx.flush()
            return
        self._send(result)
        if action == "duplicate":
            self._send(result)

    def serve(self) -> int:
        """Run the session to completion; returns the exit code."""
        try:
            if not self.handshake():
                return 2
        except (OSError, ValueError):
            return 0  # channel cut mid-handshake: the coordinator is gone
        self._heartbeat = _Heartbeat(self.tx, self._send_lock,
                                     self.worker_id, self.heartbeat_s)
        self._heartbeat.start()
        try:
            while True:
                try:
                    message = read_frame(self.rx)
                except FrameError:
                    return 3
                if message is None or message.get("type") == "shutdown":
                    return 0
                if message.get("type") == "lease":
                    self._run_lease(message)
        except (OSError, ValueError):
            return 0  # the channel died under us: the coordinator is gone
        finally:
            self._heartbeat.stop()


def main(argv: Optional[list] = None) -> int:
    """Entry point for ``python -m repro.fabric.worker``."""
    parser = argparse.ArgumentParser(
        prog="repro.fabric.worker",
        description="fabric worker process (launched by the coordinator)")
    parser.add_argument("--worker-id", required=True,
                        help="identity announced in the hello frame")
    parser.add_argument("--heartbeat", type=float, default=0.25,
                        help="seconds between heartbeat frames")
    parser.add_argument("--chaos", default=None,
                        help="FabricChaosPolicy as JSON (test-only)")
    parser.add_argument("--protocol", type=int, default=PROTOCOL_VERSION,
                        help="override the announced protocol version "
                             "(handshake-rejection tests)")
    args = parser.parse_args(argv)

    chaos = (FabricChaosPolicy.from_json(args.chaos)
             if args.chaos else None)
    rx, tx = sys.stdin.buffer, sys.stdout.buffer
    # stdout carries frames and nothing else: reroute every print (ours
    # or the simulation's) to stderr.
    sys.stdout = sys.stderr
    worker = FabricWorker(rx, tx, args.worker_id,
                          heartbeat_s=args.heartbeat, chaos=chaos,
                          protocol=args.protocol)
    return worker.serve()


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
