"""Coordinator-side worker transport: stdio subprocess pipes.

A :class:`WorkerTransport` is the coordinator's handle on one worker: a
framed byte channel (:mod:`repro.fabric.protocol`) plus lifecycle
control.  :class:`StdioTransport` spawns ``python -m
repro.fabric.worker`` as a child process and frames over its
stdin/stdout pipes — zero configuration, works anywhere a subprocess
does.

Each transport runs a daemon **reader thread** that decodes frames off
the channel into a queue; :meth:`WorkerTransport.poll` drains that
queue without blocking, returning message dicts interleaved with
:class:`~repro.fabric.protocol.FrameError` (malformed frame — the
quarantine signal) and :data:`CHANNEL_CLOSED` (EOF — the worker-lost
signal).  ``close`` joins the child with a bounded timeout and
escalates terminate → kill, so a wedged worker can never leak a zombie
past the coordinator's teardown (the same bounded-teardown contract as
:func:`repro.experiments.parallel._kill_pool`).
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
from pathlib import Path
from typing import BinaryIO, Optional, Sequence

from repro.fabric.protocol import FrameError, read_frame, write_frame

#: Sentinel queued by the reader thread when the channel reaches EOF.
CHANNEL_CLOSED = object()


def _src_root() -> Path:
    """The directory that must be on ``PYTHONPATH`` to import ``repro``."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def worker_environment() -> dict:
    """Spawn environment for a worker: parent env + importable ``repro``."""
    env = dict(os.environ)
    src = str(_src_root())
    existing = env.get("PYTHONPATH")
    if existing:
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + os.pathsep + existing
    else:
        env["PYTHONPATH"] = src
    return env


def worker_command(worker_id: str,
                   heartbeat_s: Optional[float] = None,
                   chaos_json: Optional[str] = None,
                   protocol: Optional[int] = None) -> list[str]:
    """The ``python -m repro.fabric.worker`` argv for one worker.

    ``protocol`` overrides the version the worker claims in its hello —
    a test hook for the handshake's rejection path.
    """
    command = [sys.executable, "-m", "repro.fabric.worker",
               "--worker-id", worker_id]
    if heartbeat_s is not None:
        command += ["--heartbeat", str(heartbeat_s)]
    if chaos_json:
        command += ["--chaos", chaos_json]
    if protocol is not None:
        command += ["--protocol", str(protocol)]
    return command


class _ReaderThread(threading.Thread):
    """Daemon thread queueing the frames read off one stream."""

    def __init__(self, stream: BinaryIO, frames: "queue.Queue"):
        super().__init__(daemon=True, name="fabric-frame-reader")
        self._stream = stream
        self._frames = frames

    def run(self) -> None:
        """Decode frames until EOF or a malformed frame, then stop.

        A :class:`FrameError` is queued and the thread exits: once the
        framing is out of sync nothing later on the channel can be
        trusted, so the coordinator quarantines the worker anyway.
        """
        while True:
            try:
                frame = read_frame(self._stream)
            except FrameError as error:
                self._frames.put(error)
                return
            except (OSError, ValueError):
                # The descriptor was closed under the reader (teardown).
                self._frames.put(CHANNEL_CLOSED)
                return
            if frame is None:
                self._frames.put(CHANNEL_CLOSED)
                return
            self._frames.put(frame)


class WorkerTransport:
    """One framed channel to a worker, with bounded lifecycle control.

    This base owns the frame queue, the send lock and the teardown
    ladder over an optional child ``process``; :class:`StdioTransport`
    wires it to a real worker's pipes, and tests subclass it with
    scripted frames.
    """

    def __init__(self, name: str,
                 process: Optional[subprocess.Popen] = None):
        self.name = name
        self.process = process
        self._frames: "queue.Queue" = queue.Queue()
        self._send_lock = threading.Lock()
        self._closed = False
        self._send_broken = False

    def send(self, message: dict) -> bool:
        """Write one frame; False when the channel is already dead.

        A send into a dead worker (EPIPE) is an expected race — the
        liveness machinery, not the send path, decides what to do about
        a lost worker.
        """
        if self._closed or self._send_broken:
            return False
        try:
            with self._send_lock:
                write_frame(self.process.stdin, message)
            return True
        except (OSError, ValueError):
            self._send_broken = True
            return False

    def poll(self) -> list:
        """Drain everything the reader has queued, without blocking.

        Items are message dicts, :class:`FrameError` instances
        (malformed frame), or :data:`CHANNEL_CLOSED` (EOF).
        """
        drained = []
        while True:
            try:
                drained.append(self._frames.get_nowait())
            except queue.Empty:
                return drained

    def alive(self) -> bool:
        """True while the worker process is still running."""
        if self._closed:
            return False
        if self.process is not None:
            return self.process.poll() is None
        return not self._send_broken

    def close(self, timeout_s: float = 5.0) -> None:
        """Tear the channel down with a bounded join.

        Terminate → bounded wait → kill → bounded wait, then close the
        pipe handles, so a hung worker cannot leak a zombie (or an open
        descriptor) past coordinator teardown.
        """
        if self._closed:
            return
        self._closed = True
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already dead
                pass
            try:
                process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                try:
                    process.kill()
                    process.wait(timeout=timeout_s)
                except (OSError,
                        subprocess.TimeoutExpired):  # pragma: no cover
                    pass
        for stream in (process.stdin, process.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:  # pragma: no cover - already closed
                    pass


class StdioTransport(WorkerTransport):
    """A worker child framed over its stdin/stdout pipes.

    ``launch`` spawns ``python -m repro.fabric.worker`` with stderr
    inherited (worker tracebacks surface in the parent's console/CI
    log) and stdout reserved exclusively for frames — the worker
    rebinds its own ``sys.stdout`` to stderr so stray prints cannot
    corrupt the framing.
    """

    def __init__(self, name: str, process: subprocess.Popen):
        super().__init__(name, process)
        _ReaderThread(process.stdout, self._frames).start()

    @classmethod
    def launch(cls, name: str,
               heartbeat_s: Optional[float] = None,
               chaos_json: Optional[str] = None,
               protocol: Optional[int] = None) -> "StdioTransport":
        """Spawn one stdio worker and wrap its pipes as a transport."""
        process = subprocess.Popen(
            worker_command(name, heartbeat_s=heartbeat_s,
                           chaos_json=chaos_json, protocol=protocol),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=worker_environment())
        return cls(name, process)


def launch_stdio_workers(count: int,
                         heartbeat_s: Optional[float] = None,
                         chaos_json: Optional[str] = None
                         ) -> list[StdioTransport]:
    """Spawn ``count`` stdio workers named ``worker-0..N-1``."""
    return [StdioTransport.launch(f"worker-{index}",
                                  heartbeat_s=heartbeat_s,
                                  chaos_json=chaos_json)
            for index in range(count)]


def close_transports(transports: Sequence[WorkerTransport],
                     timeout_s: float = 5.0) -> None:
    """Close every transport with the bounded teardown ladder."""
    for transport in transports:
        transport.close(timeout_s=timeout_s)


__all__ = [
    "CHANNEL_CLOSED",
    "StdioTransport",
    "WorkerTransport",
    "close_transports",
    "launch_stdio_workers",
    "worker_command",
    "worker_environment",
]
