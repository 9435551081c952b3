"""The fabric wire protocol: schema-checked, length-prefixed JSON frames.

Every message between the coordinator and a worker is one **frame**: a
4-byte big-endian payload length followed by that many bytes of UTF-8
JSON.  The JSON object must carry a ``type`` key naming one of the
message types below, and every required field of that type must be
present with the right JSON shape — anything else raises
:class:`FrameError`, which the coordinator treats as grounds to
quarantine the *worker*, never to fail the sweep (DESIGN.md §8).

**Authenticated framing** (DESIGN.md §8).  When both sides share a
secret (``--fabric-secret`` file or ``REPRO_FABRIC_SECRET`` env; see
:func:`resolve_fabric_secret`), every frame payload is prefixed with a
32-byte HMAC-SHA256 signature computed by a per-connection
:class:`FrameSigner` over ``nonce || sequence || body``.  The nonce is
dealt by the coordinator in a ``challenge`` frame at connect time, so
a frame captured from another sweep (different nonce) or replayed
within a session (stale sequence) fails verification with
:class:`FrameAuthError` — a single-line, non-crashing rejection.
Without a secret the wire format is byte-identical to protocol v1
unsigned frames.

Message types (required fields):

- ``challenge`` (coordinator → worker, signed sessions only):
  ``nonce`` — dealt before anything else; all later frames are signed
  under it.
- ``hello`` (worker → coordinator): ``worker_id``, ``protocol``,
  ``host``, ``pid`` — the handshake opener.  A ``protocol`` other than
  :data:`PROTOCOL_VERSION` is rejected.  Optional ``token`` resumes a
  previous session after a reconnect, and optional ``resuming``
  (``{"lease_id", "key"}``) names a lease the worker still holds so
  the coordinator can re-validate it instead of double-executing.
- ``welcome`` / ``reject`` (coordinator → worker): handshake close.
  ``welcome`` carries a ``token`` the worker presents when
  reconnecting.
- ``lease`` (coordinator → worker): ``lease_id``, ``key``, ``attempt``,
  ``spec``, ``use_cache`` — one grant of one sweep point; the optional
  ``trace`` bool (absent = true) says whether the worker traces the
  run and ships its span tree and metrics back.
  ``spec`` is the :class:`~repro.experiments.parallel.RunSpec` as an
  opaque base64 blob (:func:`encode_spec`): the coordinator spawns its
  own workers from the same code tree, and the protocol-version
  handshake gates compatibility.
- ``result`` (worker → coordinator): ``lease_id``, ``key``, ``result``,
  ``checksum`` — the point's serialized
  :class:`~repro.experiments.records.ConfigResult` plus its payload
  checksum; an optional ``manifest`` dict carries the run's manifest,
  and ``trace``/``metrics`` dicts its telemetry when the lease asked.
- ``error`` (worker → coordinator): ``lease_id``, ``key``, ``error`` —
  the point raised; the coordinator retries under its backoff policy.
- ``heartbeat`` (worker → coordinator): ``worker_id`` — liveness.
- ``shutdown`` (coordinator → worker): drain and exit.

Unknown *extra* fields are allowed (forward compatibility); unknown
message *types* are not.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import os
import pickle
from pathlib import Path
from typing import BinaryIO, Optional, Union

#: Protocol generation carried in the ``hello`` handshake.  Bump on any
#: incompatible frame-shape change so a stale worker is rejected at
#: connect time instead of corrupting a sweep later.  v2 added the
#: ``challenge`` auth handshake and the token/resume fields.
PROTOCOL_VERSION = 2

#: Bytes of big-endian frame-length header preceding every payload.
HEADER_BYTES = 4

#: Bytes of HMAC-SHA256 signature prefixed to signed frame payloads.
SIGNATURE_BYTES = 32

#: Upper bound on one frame's payload; anything larger is corruption
#: (a full telemetry result is a few hundred KB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Environment variable holding the shared fabric secret (literal).
SECRET_ENV = "REPRO_FABRIC_SECRET"

#: Required fields (name → JSON type) per message type.  ``None`` in a
#: tuple means the field may also be null.
MESSAGE_SCHEMAS: dict[str, dict[str, tuple]] = {
    "challenge": {"nonce": (str,)},
    "hello": {"worker_id": (str,), "protocol": (int,), "host": (str,),
              "pid": (int,)},
    "welcome": {"protocol": (int,)},
    "reject": {"reason": (str,)},
    "lease": {"lease_id": (str,), "key": (str,), "attempt": (int,),
              "spec": (str,), "use_cache": (bool,)},
    "result": {"lease_id": (str,), "key": (str,), "result": (dict,),
               "checksum": (str,)},
    "error": {"lease_id": (str,), "key": (str,), "error": (str,)},
    "heartbeat": {"worker_id": (str,)},
    "shutdown": {},
}


class FrameError(ValueError):
    """A frame failed byte-level or schema-level validation."""


class FrameAuthError(FrameError):
    """A frame failed HMAC verification (forged, replayed, cross-sweep).

    A subclass of :class:`FrameError` so every existing quarantine path
    handles it, while the coordinator can still tell an authentication
    rejection (``fabric.auth.rejected``) from plain corruption.
    """


class HandshakeError(RuntimeError):
    """The protocol-version handshake failed (stale or foreign worker)."""


def resolve_fabric_secret(path: Optional[Union[str, Path]] = None
                          ) -> Optional[str]:
    """The shared fabric secret, or ``None`` (unauthenticated framing).

    ``path`` (the ``--fabric-secret`` flag) names a file whose stripped
    contents are the secret; it takes precedence over the
    :data:`SECRET_ENV` environment variable.  An unreadable or empty
    secret file raises a single-line :class:`ValueError`.
    """
    if path:
        try:
            secret = Path(path).read_text(encoding="utf-8").strip()
        except OSError as error:
            raise ValueError(f"cannot read fabric secret file "
                             f"{str(path)!r}: {error}")
        if not secret:
            raise ValueError(f"fabric secret file {str(path)!r} is empty")
        return secret
    secret = os.environ.get(SECRET_ENV)
    return secret if secret else None


class FrameSigner:
    """Per-connection frame authentication state (one per channel side).

    Holds the shared secret, the session nonce (empty until the
    ``challenge`` frame deals one), and one monotonically increasing
    sequence counter per direction.  The signature of the N-th frame a
    side sends is ``HMAC-SHA256(secret, nonce || N || body)``, so:

    - a peer without the secret cannot produce a valid signature;
    - a frame recorded from another connection/sweep carries a
      different nonce and fails verification (cross-sweep replay);
    - a frame replayed within the session carries a stale sequence
      number and fails verification (in-session replay).

    Verification failures raise :class:`FrameAuthError`.  The send path
    must already be serialized by the channel's send lock; the receive
    path runs on the single reader thread.
    """

    def __init__(self, secret: str, nonce: str = ""):
        self._key = secret.encode("utf-8")
        self.nonce = nonce
        self.send_seq = 0
        self.recv_seq = 0

    def _mac(self, seq: int, body: bytes) -> bytes:
        message = (self.nonce.encode("utf-8")
                   + seq.to_bytes(8, "big") + body)
        return hmac.new(self._key, message, hashlib.sha256).digest()

    def sign(self, body: bytes) -> bytes:
        """Signature for the next outbound frame; advances the counter."""
        signature = self._mac(self.send_seq, body)
        self.send_seq += 1
        return signature

    def verify(self, signature: bytes, body: bytes) -> None:
        """Check one inbound frame's signature; advances the counter."""
        expected = self._mac(self.recv_seq, body)
        if not hmac.compare_digest(signature, expected):
            raise FrameAuthError(
                f"frame signature rejected at seq {self.recv_seq} "
                f"(wrong secret, replayed frame, or cross-sweep nonce)")
        self.recv_seq += 1


def validate_message(message: object) -> dict:
    """Schema-check one decoded message; returns it or raises FrameError.

    Checks the ``type`` key names a known message and that every
    required field is present with the expected JSON type.  Extra
    fields pass through untouched.
    """
    if not isinstance(message, dict):
        raise FrameError(f"frame payload is {type(message).__name__}, "
                         f"not an object")
    kind = message.get("type")
    schema = MESSAGE_SCHEMAS.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise FrameError(f"unknown message type {kind!r}")
    for name, types in schema.items():
        if name not in message:
            raise FrameError(f"{kind} frame is missing field {name!r}")
        value = message[name]
        # bool is an int subclass; an int field must not accept True.
        if isinstance(value, bool) and bool not in types:
            raise FrameError(f"{kind}.{name} must be "
                             f"{'/'.join(t.__name__ for t in types)}, "
                             f"got bool")
        if not isinstance(value, tuple(types)):
            raise FrameError(f"{kind}.{name} must be "
                             f"{'/'.join(t.__name__ for t in types)}, "
                             f"got {type(value).__name__}")
    return message


def encode_frame(message: dict,
                 signer: Optional[FrameSigner] = None) -> bytes:
    """Validate and serialize one message to its on-wire frame bytes.

    With a ``signer`` the payload is prefixed by its 32-byte HMAC and
    the length header covers signature plus body.
    """
    validate_message(message)
    body = json.dumps(message, sort_keys=True).encode("utf-8")
    payload = signer.sign(body) + body if signer is not None else body
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds "
                         f"the {MAX_FRAME_BYTES}-byte bound")
    return len(payload).to_bytes(HEADER_BYTES, "big") + payload


def decode_frame(payload: bytes,
                 signer: Optional[FrameSigner] = None) -> dict:
    """Parse and schema-check one frame payload (sans length header).

    With a ``signer`` the payload must lead with a valid 32-byte HMAC;
    anything else raises :class:`FrameAuthError` before the body is
    even parsed — unauthenticated bytes never reach the JSON decoder.
    """
    if signer is not None:
        if len(payload) <= SIGNATURE_BYTES:
            raise FrameAuthError(
                f"signed frame of {len(payload)} bytes is too short to "
                f"carry a {SIGNATURE_BYTES}-byte signature")
        signature, body = (payload[:SIGNATURE_BYTES],
                           payload[SIGNATURE_BYTES:])
        signer.verify(signature, body)
    else:
        body = payload
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame payload is not valid JSON: {error}")
    return validate_message(message)


def _read_exactly(stream: BinaryIO, count: int) -> bytes:
    """Read exactly ``count`` bytes, tolerating short reads from pipes."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO,
               signer: Optional[FrameSigner] = None) -> Optional[dict]:
    """Read one frame from a binary stream.

    Returns the validated message, or ``None`` on a clean EOF (the peer
    closed between frames).  EOF *inside* a frame, an absurd length, or
    an undecodable payload raises :class:`FrameError` — the caller's cue
    to quarantine the peer.  With a ``signer``, an invalid signature
    raises :class:`FrameAuthError` instead.
    """
    header = _read_exactly(stream, HEADER_BYTES)
    if not header:
        return None
    if len(header) < HEADER_BYTES:
        raise FrameError(f"truncated frame header ({len(header)} of "
                         f"{HEADER_BYTES} bytes)")
    length = int.from_bytes(header, "big")
    if length <= 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} outside "
                         f"(0, {MAX_FRAME_BYTES}]")
    payload = _read_exactly(stream, length)
    if len(payload) < length:
        raise FrameError(f"truncated frame payload ({len(payload)} of "
                         f"{length} bytes)")
    return decode_frame(payload, signer=signer)


def write_frame(stream: BinaryIO, message: dict,
                signer: Optional[FrameSigner] = None) -> None:
    """Encode ``message`` (signed when a signer is given) and write it."""
    stream.write(encode_frame(message, signer=signer))
    stream.flush()


def encode_spec(spec) -> str:
    """Serialize a :class:`RunSpec` for the ``lease.spec`` field.

    Base64-wrapped pickle: the spec carries nested dataclasses (machine
    config, runner settings, fault plan) that are picklable by design —
    they already cross the process-pool boundary — and the coordinator
    only ever leases to workers it spawned from the same code tree.
    """
    return base64.b64encode(
        pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def decode_spec(text: str):
    """Rebuild the :class:`RunSpec` from a ``lease.spec`` field."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as error:
        raise FrameError(f"lease spec does not decode: {error!r}")


__all__ = [
    "FrameAuthError",
    "FrameError",
    "FrameSigner",
    "HandshakeError",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "MESSAGE_SCHEMAS",
    "PROTOCOL_VERSION",
    "SECRET_ENV",
    "SIGNATURE_BYTES",
    "decode_frame",
    "decode_spec",
    "encode_frame",
    "encode_spec",
    "read_frame",
    "resolve_fabric_secret",
    "validate_message",
    "write_frame",
]
