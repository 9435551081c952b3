"""Lightweight metrics: counters/gauges/timings plus a JSONL live stream.

Complement to :mod:`repro.obs.tracing`: spans answer "where did this
run spend its time", the :class:`MetricsRegistry` answers "what has the
harness done so far" — runs started and finished, cache hits and
misses, fixed-point rounds, engine events retired, fault injections.
Layers publish through the module-level helpers (:func:`inc`,
:func:`gauge`, :func:`observe`, :func:`emit`), which follow the same
hard rules as tracing (DESIGN.md §9/§10):

- **Off by default.**  The module-level :data:`ACTIVE` flag is the only
  thing call sites may read; when it is ``False`` every helper returns
  before allocating anything.  Publishing happens at phase boundaries
  (a handful of calls per run), never per simulated event.
- **No effect on results.**  Metrics read totals that the simulation
  already computed; they never touch an RNG stream, an event heap, or a
  metric that feeds a result, so an instrumented run stays bit-identical
  to the goldens.

The **event stream** makes long sweeps tailable live: when a stream
path is configured — explicitly via :func:`enable_metrics`, or through
the ``REPRO_METRICS_PATH`` environment variable (which auto-enables
metrics at import time, so ``REPRO_METRICS_PATH=m.jsonl python -m repro
sweep ...`` just works, workers included) — every :func:`emit` appends
one JSON line::

    {"schema": 1, "event": "run-started", "ts": ..., "pid": ..., ...}

Each record is written with a single ``write`` of one line on a freshly
opened append-mode handle, so concurrent pool workers interleave whole
records rather than torn lines.  Registries serialize with
:meth:`MetricsRegistry.to_dict` and merge with
:meth:`MetricsRegistry.merge`, which is how workers return their
counters to the sweep parent.
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

#: True while a registry is installed.  Call sites guard on this flag
#: (one module-attribute read) and must not call anything else when it
#: is False.
ACTIVE: bool = False

_REGISTRY: Optional["MetricsRegistry"] = None

#: Environment variable naming the JSONL event-stream file.  Setting it
#: auto-enables metrics for the process (and its pool workers, which
#: inherit the environment).
METRICS_PATH_ENV = "REPRO_METRICS_PATH"

#: Schema generation stamped into every stream record.
STREAM_SCHEMA_VERSION = 1


class MetricsRegistry:
    """Process-local metric store: counters, gauges, timing summaries.

    - *counters* only ever add (``inc``);
    - *gauges* record the last value set (``gauge``);
    - *timings* aggregate observations into count/total/min/max
      (``observe``), enough for "slowest phase" questions without
      keeping every sample.

    ``stream_path`` (optional) is where :meth:`emit` appends JSONL
    event records; ``None`` disables the stream while keeping the
    in-memory registry.
    """

    def __init__(self, stream_path: Optional[str] = None):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timings: dict[str, dict[str, float]] = {}
        self.stream_path = str(stream_path) if stream_path else None

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` into the named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""
        self.gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration observation into the named timing."""
        stat = self.timings.get(name)
        if stat is None:
            self.timings[name] = {"count": 1.0, "total_s": float(seconds),
                                  "min_s": float(seconds),
                                  "max_s": float(seconds)}
            return
        stat["count"] += 1.0
        stat["total_s"] += seconds
        stat["min_s"] = min(stat["min_s"], seconds)
        stat["max_s"] = max(stat["max_s"], seconds)

    def emit(self, event: str, **fields) -> None:
        """Append one event record to the JSONL stream (if configured).

        The record carries the schema version, event name, wall-clock
        timestamp, and emitting pid, then the caller's fields.  Stream
        problems (full disk, revoked permissions) are swallowed:
        telemetry must never fail a run.
        """
        if self.stream_path is None:
            return
        record = {"schema": STREAM_SCHEMA_VERSION, "event": event,
                  "ts": time.time(), "pid": os.getpid()}
        record.update(fields)
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            with open(self.stream_path, "a", encoding="utf-8") as handle:
                handle.write(line)
        except OSError:  # pragma: no cover - stream is best-effort
            pass

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (the worker → parent payload)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timings": {name: dict(stat)
                        for name, stat in self.timings.items()},
        }

    def merge(self, payload: dict) -> None:
        """Fold a :meth:`to_dict` payload (e.g. from a pool worker) in.

        Counters add, gauges take the incoming value (last write wins),
        timings combine count/total/min/max.
        """
        for name, value in payload.get("counters", {}).items():
            self.inc(name, value)
        for name, value in payload.get("gauges", {}).items():
            self.gauge(name, value)
        for name, stat in payload.get("timings", {}).items():
            mine = self.timings.get(name)
            if mine is None:
                self.timings[name] = dict(stat)
                continue
            mine["count"] += stat["count"]
            mine["total_s"] += stat["total_s"]
            mine["min_s"] = min(mine["min_s"], stat["min_s"])
            mine["max_s"] = max(mine["max_s"], stat["max_s"])


def enable_metrics(registry: Optional[MetricsRegistry] = None,
                   stream_path: Optional[str] = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process registry.

    ``stream_path`` overrides the registry's stream destination; when
    neither is given, ``REPRO_METRICS_PATH`` (if set) supplies it.
    """
    global _REGISTRY, ACTIVE
    if registry is None:
        registry = MetricsRegistry(
            stream_path or os.environ.get(METRICS_PATH_ENV))
    elif stream_path is not None:
        registry.stream_path = stream_path
    _REGISTRY = registry
    ACTIVE = True
    return registry


def disable_metrics() -> Optional[MetricsRegistry]:
    """Uninstall and return the process registry (None when inactive)."""
    global _REGISTRY, ACTIVE
    registry, _REGISTRY = _REGISTRY, None
    ACTIVE = False
    return registry


def current_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or None."""
    return _REGISTRY


def inc(name: str, amount: float = 1.0) -> None:
    """Add into the active registry's counter (no-op when inactive)."""
    if ACTIVE and _REGISTRY is not None:
        _REGISTRY.inc(name, amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry (no-op when inactive)."""
    if ACTIVE and _REGISTRY is not None:
        _REGISTRY.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    """Record a duration on the active registry (no-op when inactive)."""
    if ACTIVE and _REGISTRY is not None:
        _REGISTRY.observe(name, seconds)


def emit(event: str, **fields) -> None:
    """Append a stream record via the active registry (no-op when
    inactive or when no stream path is configured)."""
    if ACTIVE and _REGISTRY is not None:
        _REGISTRY.emit(event, **fields)


# Setting REPRO_METRICS_PATH is the documented "tail my sweep" switch:
# it must work without any code-level opt-in, including inside pool
# workers (which inherit the environment), so the stream arms itself on
# import.  Without the variable this module stays completely inert.
if os.environ.get(METRICS_PATH_ENV):  # pragma: no cover - env-dependent
    enable_metrics()
