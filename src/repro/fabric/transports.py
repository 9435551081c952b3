"""Coordinator-side worker transports: stdio subprocess pipes and TCP.

A :class:`WorkerTransport` is the coordinator's handle on one remote
worker: a framed byte channel (:mod:`repro.fabric.protocol`) plus
lifecycle control.  Two concrete transports:

- :class:`StdioTransport` spawns ``python -m repro.fabric.worker`` as a
  child process and frames over its stdin/stdout pipes — zero
  configuration, works anywhere a subprocess does, and the natural
  first rung of the distributed ladder (the same shape mongodb-d4's
  message-channel experiment API uses);
- :class:`TcpTransport` frames over a connected socket accepted by a
  :class:`TcpListener` — the "other hosts" rung.  The bundled launcher
  still spawns local worker processes that dial back in (CI-friendly),
  but the listener accepts any worker that completes the handshake.

Each transport runs a daemon **reader thread** that decodes frames off
the channel into a queue; :meth:`WorkerTransport.poll` drains that
queue without blocking, returning message dicts interleaved with
:class:`~repro.fabric.protocol.FrameError` (malformed frame — the
quarantine signal), :class:`~repro.fabric.protocol.FrameAuthError`
(signature rejected — the auth-rejection signal), and
:data:`CHANNEL_CLOSED` (EOF — the worker-lost signal).  TCP readers
additionally enforce a **mid-frame read deadline**: once the first
byte of a frame has arrived, the rest must follow within
``read_deadline_s`` or the frame is declared stalled (a half-open
socket or slow-loris peer surfaces as a single-line
:class:`FrameError` instead of wedging the reader forever); idle time
*between* frames is unbounded — heartbeat liveness owns that budget.
``close`` joins the child with a bounded timeout and escalates
terminate → kill, so a wedged worker can never leak a zombie past the
coordinator's teardown (the same bounded-teardown contract as
:func:`repro.experiments.parallel._kill_pool`).
"""

from __future__ import annotations

import os
import queue
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.fabric.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    SECRET_ENV,
    FrameError,
    FrameSigner,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)

#: Sentinel queued by the reader thread when the channel reaches EOF.
CHANNEL_CLOSED = object()

#: Default mid-frame read deadline for TCP transports (seconds).
DEFAULT_READ_DEADLINE_S = 10.0


def _src_root() -> Path:
    """The directory that must be on ``PYTHONPATH`` to import ``repro``."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def worker_environment(secret: Optional[str] = None) -> dict:
    """Spawn environment for a worker: parent env + importable ``repro``.

    ``secret``, when given, rides to locally spawned workers through
    :data:`~repro.fabric.protocol.SECRET_ENV` so both channel ends sign
    frames with the same key.  Remote workers bring their own secret
    (``repro fabric-worker --fabric-secret``).
    """
    env = dict(os.environ)
    src = str(_src_root())
    existing = env.get("PYTHONPATH")
    if existing:
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + os.pathsep + existing
    else:
        env["PYTHONPATH"] = src
    if secret is not None:
        env[SECRET_ENV] = secret
    return env


def worker_command(worker_id: str,
                   connect: Optional[str] = None,
                   heartbeat_s: Optional[float] = None,
                   chaos_json: Optional[str] = None,
                   protocol: Optional[int] = None) -> list[str]:
    """The ``python -m repro.fabric.worker`` argv for one worker.

    ``connect`` (``host:port``) selects the TCP transport; without it
    the worker frames over stdio.  ``protocol`` overrides the version
    the worker claims in its hello — a test hook for the handshake's
    rejection path.
    """
    command = [sys.executable, "-m", "repro.fabric.worker",
               "--worker-id", worker_id]
    if connect is not None:
        command += ["--connect", connect]
    if heartbeat_s is not None:
        command += ["--heartbeat", str(heartbeat_s)]
    if chaos_json:
        command += ["--chaos", chaos_json]
    if protocol is not None:
        command += ["--protocol", str(protocol)]
    return command


class _ReaderThread(threading.Thread):
    """Daemon thread queueing the frames ``read_one()`` decodes.

    ``read_one`` returns the next frame, or ``None`` at EOF; the stdio
    transport reads with :func:`read_frame`, the TCP transport with its
    mid-frame-deadline socket reader.
    """

    def __init__(self, read_one: Callable[[], Optional[dict]],
                 frames: "queue.Queue"):
        super().__init__(daemon=True, name="fabric-frame-reader")
        self._read_one = read_one
        self._frames = frames

    def run(self) -> None:
        """Decode frames until EOF or a malformed frame, then stop.

        A :class:`FrameError` (bad or stalled frame) is queued and the
        thread exits: once the framing is out of sync nothing later on
        the channel can be trusted, so the coordinator quarantines the
        worker anyway.
        """
        while True:
            try:
                frame = self._read_one()
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


def _recv_exactly(sock: socket.socket, count: int,
                  deadline: Optional[float]) -> bytes:
    """Receive exactly ``count`` bytes, or as many as arrive before EOF.

    With a ``deadline`` (a ``time.monotonic`` instant), waits for
    readability with ``select`` so the socket's blocking mode is never
    disturbed; a stall past the deadline raises a single-line
    :class:`FrameError` — the slow-loris / half-open-socket signal.
    """
    data = bytearray()
    while len(data) < count:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0 or not select.select([sock], [], [], budget)[0]:
                raise FrameError(
                    f"read deadline: frame stalled with {len(data)} of "
                    f"{count} bytes pending (half-open or slow-loris peer)")
        chunk = sock.recv(count - len(data))
        if not chunk:
            break
        data.extend(chunk)
    return bytes(data)


class WorkerTransport:
    """One framed channel to a worker, with bounded lifecycle control.

    Subclasses provide the byte streams and process handle; this base
    owns the reader thread, the send lock, and the teardown ladder.
    """

    def __init__(self, name: str, signer: Optional[FrameSigner] = None):
        self.name = name
        self.signer = signer
        self._frames: "queue.Queue" = queue.Queue()
        self._send_lock = threading.Lock()
        self._reader: Optional[threading.Thread] = None
        self._closed = False
        self._send_broken = False

    # -- subclass surface ----------------------------------------------
    def _read_one(self) -> Optional[dict]:
        """Decode the next frame off the channel; ``None`` at EOF."""
        raise NotImplementedError

    def _write_stream(self):
        """The binary stream frames are written to."""
        raise NotImplementedError

    def _process(self) -> Optional[subprocess.Popen]:
        """The child process behind the channel, when there is one."""
        return None

    def _close_streams(self) -> None:
        """Release the underlying channel resources (best-effort)."""

    # -- coordinator surface -------------------------------------------
    def start(self) -> None:
        """Start the reader thread (idempotent)."""
        if self._reader is None:
            self._reader = _ReaderThread(self._read_one, self._frames)
            self._reader.start()

    def send(self, message: dict) -> bool:
        """Write one frame; False when the channel is already dead.

        A send into a dead worker (EPIPE, closed socket) is an expected
        race — the liveness machinery, not the send path, decides what
        to do about a lost worker.
        """
        if self._closed or self._send_broken:
            return False
        try:
            with self._send_lock:
                write_frame(self._write_stream(), message,
                            signer=self.signer)
            return True
        except (OSError, ValueError):
            self._send_broken = True
            return False

    def issue_challenge(self) -> bool:
        """Deal the session nonce that keys every later frame signature.

        Signed channels only: sends the ``challenge`` frame (itself
        signed under the empty bootstrap nonce) and installs the fresh
        nonce on the signer, so a frame recorded from any other
        connection or sweep can never verify on this one.  The nonce is
        installed after signing but *before* the frame reaches the
        wire, so the reader thread can never see a response signed
        under a nonce we have not adopted yet.  No-op on unsigned
        channels.
        """
        if self.signer is None:
            return True
        if self._closed or self._send_broken:
            return False
        nonce = os.urandom(16).hex()
        try:
            with self._send_lock:
                frame = encode_frame({"type": "challenge", "nonce": nonce},
                                     signer=self.signer)
                self.signer.nonce = nonce
                stream = self._write_stream()
                stream.write(frame)
                stream.flush()
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
        """True while the underlying process (if any) is still running."""
        if self._closed:
            return False
        process = self._process()
        if process is not None:
            return process.poll() is None
        return not self._send_broken

    def kill(self) -> None:
        """Hard-kill the worker process (no-op without one)."""
        process = self._process()
        if process is not None:
            try:
                process.kill()
            except OSError:  # pragma: no cover - already dead
                pass

    def describe(self) -> dict:
        """Identity fields for events and health snapshots."""
        process = self._process()
        return {"transport": type(self).__name__,
                "pid": process.pid if process is not None else None}

    def close(self, timeout_s: float = 5.0) -> None:
        """Tear the channel down with a bounded join.

        Terminate → bounded wait → kill → bounded wait, then close the
        pipe/socket handles, so a hung worker cannot leak a zombie (or
        an open descriptor) past coordinator teardown.
        """
        if self._closed:
            return
        self._closed = True
        process = self._process()
        if process is not None and process.poll() is None:
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
        self._close_streams()


class StdioTransport(WorkerTransport):
    """A worker child framed over its stdin/stdout pipes.

    ``launch`` spawns ``python -m repro.fabric.worker`` with stderr
    inherited (worker tracebacks surface in the parent's console/CI
    log) and stdout reserved exclusively for frames — the worker
    rebinds its own ``sys.stdout`` to stderr so stray prints cannot
    corrupt the framing.
    """

    def __init__(self, name: str, process: subprocess.Popen,
                 signer: Optional[FrameSigner] = None):
        super().__init__(name, signer=signer)
        self.process = process
        self.start()

    @classmethod
    def launch(cls, name: str,
               heartbeat_s: Optional[float] = None,
               chaos_json: Optional[str] = None,
               protocol: Optional[int] = None,
               secret: Optional[str] = None) -> "StdioTransport":
        """Spawn one stdio worker and wrap its pipes as a transport."""
        process = subprocess.Popen(
            worker_command(name, heartbeat_s=heartbeat_s,
                           chaos_json=chaos_json, protocol=protocol),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=worker_environment(secret=secret))
        signer = FrameSigner(secret) if secret is not None else None
        transport = cls(name, process, signer=signer)
        transport.issue_challenge()
        return transport

    def _read_one(self) -> Optional[dict]:
        return read_frame(self.process.stdout, signer=self.signer)

    def _write_stream(self):
        return self.process.stdin

    def _process(self) -> Optional[subprocess.Popen]:
        return self.process

    def _close_streams(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:  # pragma: no cover - already closed
                    pass


class TcpTransport(WorkerTransport):
    """A worker framed over a connected TCP socket.

    Built by :meth:`TcpListener.accept`; carries the socket plus (for
    locally launched workers) the child process handle so ``kill`` and
    the bounded ``close`` work exactly as for stdio workers.

    Reads block indefinitely *between* frames (an idle worker is the
    heartbeat machinery's problem, not the reader's), but once the
    first byte of a frame arrives the remainder must land within
    ``read_deadline_s``: a peer that dies without FIN or trickles a
    frame byte-by-byte surfaces as a quarantinable :class:`FrameError`
    instead of parking the reader thread forever.
    """

    def __init__(self, name: str, sock: socket.socket,
                 process: Optional[subprocess.Popen] = None,
                 signer: Optional[FrameSigner] = None,
                 read_deadline_s: float = DEFAULT_READ_DEADLINE_S):
        super().__init__(name, signer=signer)
        self.sock = sock
        self.process = process
        self._read_deadline_s = read_deadline_s
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        except OSError:  # pragma: no cover - exotic socket type
            pass
        self._tx = sock.makefile("wb")
        self.start()

    def _read_one(self) -> Optional[dict]:
        first = _recv_exactly(self.sock, 1, None)
        if not first:
            return None
        deadline = time.monotonic() + self._read_deadline_s
        header = first + _recv_exactly(self.sock, HEADER_BYTES - 1,
                                       deadline)
        if len(header) < HEADER_BYTES:
            raise FrameError(f"truncated frame header ({len(header)} of "
                             f"{HEADER_BYTES} bytes)")
        length = int.from_bytes(header, "big")
        if length <= 0 or length > MAX_FRAME_BYTES:
            raise FrameError(f"frame length {length} outside "
                             f"(0, {MAX_FRAME_BYTES}]")
        payload = _recv_exactly(self.sock, length, deadline)
        if len(payload) < length:
            raise FrameError(f"truncated frame payload ({len(payload)} "
                             f"of {length} bytes)")
        return decode_frame(payload, signer=self.signer)

    def _write_stream(self):
        return self._tx

    def _process(self) -> Optional[subprocess.Popen]:
        return self.process

    def alive(self) -> bool:
        """True while the socket (and the child, if local) is usable."""
        if self._closed or self._send_broken:
            return False
        if self.process is not None and self.process.poll() is not None:
            return False
        return True

    def _close_streams(self) -> None:
        try:
            self._tx.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class TcpListener:
    """The coordinator's accept socket for TCP workers.

    Binds ``host:port`` (port 0 = ephemeral) at construction so the
    bound :attr:`address` can be handed to workers before any of them
    dial in.  Binding a non-loopback host turns the coordinator
    multi-host: remote workers join with ``repro fabric-worker
    --connect``.  ``secret``/``read_deadline_s`` configure every
    accepted transport's frame authentication and mid-frame read
    deadline; each accept gets its own :class:`FrameSigner` and a
    fresh challenge nonce.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 secret: Optional[str] = None,
                 read_deadline_s: float = DEFAULT_READ_DEADLINE_S):
        self.secret = secret
        self.read_deadline_s = read_deadline_s
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) workers should connect to."""
        return self._sock.getsockname()[:2]

    @property
    def connect_arg(self) -> str:
        """The ``--connect host:port`` value for :func:`worker_command`."""
        host, port = self.address
        return f"{host}:{port}"

    def _wrap(self, conn: socket.socket, name: str,
              process: Optional[subprocess.Popen]) -> TcpTransport:
        """Wrap one accepted socket: signer, transport, challenge."""
        signer = (FrameSigner(self.secret)
                  if self.secret is not None else None)
        transport = TcpTransport(name, conn, process=process,
                                 signer=signer,
                                 read_deadline_s=self.read_deadline_s)
        transport.issue_challenge()
        return transport

    def accept(self, timeout_s: float = 10.0,
               name: str = "tcp-worker",
               process: Optional[subprocess.Popen] = None) -> TcpTransport:
        """Accept one connection and wrap it as a :class:`TcpTransport`.

        Raises :class:`TimeoutError` when no worker dials in within
        ``timeout_s`` — the caller treats that worker as lost at birth.
        """
        self._sock.settimeout(timeout_s)
        try:
            conn, _addr = self._sock.accept()
        except socket.timeout:
            raise TimeoutError(
                f"no worker connected within {timeout_s:.1f}s")
        finally:
            self._sock.settimeout(None)
        return self._wrap(conn, name, process)

    def poll_accept(self, name: str = "tcp-worker"
                    ) -> Optional[TcpTransport]:
        """Accept one pending connection without blocking, or ``None``.

        The coordinator calls this every loop tick so reconnecting (and
        late-joining) workers can enter mid-sweep instead of only at
        fleet launch.
        """
        if not select.select([self._sock], [], [], 0)[0]:
            return None
        self._sock.settimeout(0.0)
        try:
            conn, _addr = self._sock.accept()
        except (BlockingIOError, socket.timeout,
                OSError):  # pragma: no cover - accept raced a reset
            return None
        finally:
            self._sock.settimeout(None)
        return self._wrap(conn, name, process=None)

    def close(self) -> None:
        """Close the accept socket."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


def launch_stdio_workers(count: int,
                         heartbeat_s: Optional[float] = None,
                         chaos_json: Optional[str] = None,
                         secret: Optional[str] = None
                         ) -> list[StdioTransport]:
    """Spawn ``count`` stdio workers named ``worker-0..N-1``."""
    return [StdioTransport.launch(f"worker-{index}",
                                  heartbeat_s=heartbeat_s,
                                  chaos_json=chaos_json,
                                  secret=secret)
            for index in range(count)]


def launch_tcp_workers(count: int, listener: TcpListener,
                       heartbeat_s: Optional[float] = None,
                       chaos_json: Optional[str] = None,
                       accept_timeout_s: float = 30.0
                       ) -> list[TcpTransport]:
    """Spawn ``count`` local TCP workers and accept them all.

    Each child is launched with ``--connect`` pointing at the listener;
    transports are returned in accept order (identity comes from the
    hello frame, not the accept order).  The listener's ``secret``
    rides to the children through the environment so both ends sign.
    Children that never dial in are killed before the
    :class:`TimeoutError` propagates.
    """
    processes = [
        subprocess.Popen(
            worker_command(f"worker-{index}",
                           connect=listener.connect_arg,
                           heartbeat_s=heartbeat_s,
                           chaos_json=chaos_json),
            env=worker_environment(secret=listener.secret))
        for index in range(count)
    ]
    transports: list[TcpTransport] = []
    deadline = time.monotonic() + accept_timeout_s
    try:
        for index in range(count):
            remaining = max(0.1, deadline - time.monotonic())
            transports.append(listener.accept(
                timeout_s=remaining, name=f"tcp-{index}",
                process=processes[index]))
    except TimeoutError:
        for process in processes:
            if process.poll() is None:
                process.kill()
        raise
    return transports


def close_transports(transports: Sequence[WorkerTransport],
                     timeout_s: float = 5.0) -> None:
    """Close every transport with the bounded teardown ladder."""
    for transport in transports:
        transport.close(timeout_s=timeout_s)


__all__ = [
    "CHANNEL_CLOSED",
    "DEFAULT_READ_DEADLINE_S",
    "StdioTransport",
    "TcpListener",
    "TcpTransport",
    "WorkerTransport",
    "close_transports",
    "launch_stdio_workers",
    "launch_tcp_workers",
    "worker_command",
    "worker_environment",
]
