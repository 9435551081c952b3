"""The fabric wire protocol: schema-checked, length-prefixed JSON frames.

Every message between the coordinator and a worker is one **frame**: a
4-byte big-endian payload length followed by that many bytes of UTF-8
JSON.  The JSON object must carry a ``type`` key naming one of the
message types below, and every required field of that type must be
present with the right JSON shape — anything else raises
:class:`FrameError`, which the coordinator treats as grounds to
quarantine the *worker*, never to fail the sweep (DESIGN.md §8).
Frames travel over the stdin/stdout pipes of a worker the coordinator
spawned itself, so they carry no authentication.

Message types (required fields):

- ``hello`` (worker → coordinator): ``worker_id``, ``protocol``,
  ``host``, ``pid`` — the handshake opener.  A ``protocol`` other than
  :data:`PROTOCOL_VERSION` is rejected.
- ``welcome`` / ``reject`` (coordinator → worker): handshake close.
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
import json
import pickle
from typing import BinaryIO, Optional

#: Protocol generation carried in the ``hello`` handshake.  Bump on any
#: incompatible frame-shape change so a stale worker is rejected at
#: connect time instead of corrupting a sweep later.  v3 dropped the
#: ``challenge`` auth handshake and the token/resume hello fields.
PROTOCOL_VERSION = 3

#: Bytes of big-endian frame-length header preceding every payload.
HEADER_BYTES = 4

#: Upper bound on one frame's payload; anything larger is corruption
#: (a full telemetry result is a few hundred KB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Required fields (name → JSON type) per message type.  ``None`` in a
#: tuple means the field may also be null.
MESSAGE_SCHEMAS: dict[str, dict[str, tuple]] = {
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


def encode_frame(message: dict) -> bytes:
    """Validate and serialize one message to its on-wire frame bytes."""
    validate_message(message)
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds "
                         f"the {MAX_FRAME_BYTES}-byte bound")
    return len(payload).to_bytes(HEADER_BYTES, "big") + payload


def decode_frame(payload: bytes) -> dict:
    """Parse and schema-check one frame payload (sans length header)."""
    try:
        message = json.loads(payload.decode("utf-8"))
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


def read_frame(stream: BinaryIO) -> Optional[dict]:
    """Read one frame from a binary stream.

    Returns the validated message, or ``None`` on a clean EOF (the peer
    closed between frames).  EOF *inside* a frame, an absurd length, or
    an undecodable payload raises :class:`FrameError` — the caller's cue
    to quarantine the peer.
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
    return decode_frame(payload)


def write_frame(stream: BinaryIO, message: dict) -> None:
    """Encode ``message`` and write it."""
    stream.write(encode_frame(message))
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
    "FrameError",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "MESSAGE_SCHEMAS",
    "PROTOCOL_VERSION",
    "decode_frame",
    "decode_spec",
    "encode_frame",
    "encode_spec",
    "read_frame",
    "validate_message",
    "write_frame",
]
