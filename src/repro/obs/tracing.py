"""Span-based phase tracing with a hard zero-overhead-when-off rule.

A :class:`Span` is one timed phase of a run (trace generation, the DES
measurement loop, one fixed-point round...).  Spans nest, carry a
``counters`` mapping of named totals (events retired, cache misses,
transactions committed), and record both wall and CPU time.  The
:class:`Tracer` owns the span tree of one run.

Design rules (DESIGN.md §9):

- **Off by default.**  The module-level :data:`ACTIVE` flag is the only
  thing hot call sites may read; when it is ``False`` every entry point
  short-circuits before allocating anything.
- **Phase granularity, never per-reference.**  Instrumentation sits at
  phase boundaries (a few dozen spans per run), with counter *totals*
  attached when a phase closes.  Nothing in this module runs once per
  simulated reference or DES event.
- **No effect on results.**  Tracing reads clocks and counters; it
  never touches an RNG stream, an event heap, or a metric.  A traced
  run therefore produces bit-identical :class:`ConfigResult` payloads,
  which ``tests/obs/test_bit_identity.py`` pins against the goldens.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: True while a tracer is installed.  Hot call sites guard on this flag
#: (one module-attribute read) and must not call anything else when it
#: is False.
ACTIVE: bool = False

_TRACER: Optional["Tracer"] = None


class Span:
    """One timed, counted phase; a node in the span tree."""

    __slots__ = ("name", "parent", "children", "counters",
                 "start_wall", "end_wall", "start_cpu", "end_cpu")

    def __init__(self, name: str, parent: Optional["Span"] = None):
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.counters: dict[str, float] = {}
        self.start_wall = 0.0
        self.end_wall = 0.0
        self.start_cpu = 0.0
        self.end_cpu = 0.0

    @property
    def duration_s(self) -> float:
        """Wall-clock time spent inside the span (children included)."""
        return self.end_wall - self.start_wall

    @property
    def cpu_s(self) -> float:
        """CPU time spent inside the span (children included)."""
        return self.end_cpu - self.start_cpu

    @property
    def self_s(self) -> float:
        """Wall time net of child spans (the flamegraph 'self' column)."""
        return self.duration_s - sum(c.duration_s for c in self.children)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` into the span's named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def to_dict(self) -> dict:
        """JSON-serializable form of the subtree rooted here.

        Carries absolute start clocks alongside the durations so a
        serialized tree round-trips through :meth:`from_dict` (the
        worker → parent transfer in parallel sweeps) and so the Chrome
        exporter (:mod:`repro.obs.trace_export`) can place spans on a
        timeline, not just size them.
        """
        return {
            "name": self.name,
            "start_wall": self.start_wall,
            "start_cpu": self.start_cpu,
            "duration_s": self.duration_s,
            "cpu_s": self.cpu_s,
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict,
                  parent: Optional["Span"] = None) -> "Span":
        """Rebuild a span subtree from its :meth:`to_dict` payload."""
        node = cls(str(data["name"]), parent=parent)
        node.start_wall = float(data.get("start_wall", 0.0))
        node.start_cpu = float(data.get("start_cpu", 0.0))
        node.end_wall = node.start_wall + float(data.get("duration_s", 0.0))
        node.end_cpu = node.start_cpu + float(data.get("cpu_s", 0.0))
        # Values keep their type (an int counter stays an int), so a
        # rebuilt tree renders exactly like the live one.
        node.counters = dict(data.get("counters", {}))
        node.children = [cls.from_dict(child, parent=node)
                         for child in data.get("children", [])]
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name!r} {self.duration_s:.4f}s "
                f"{len(self.children)} child(ren)>")


class Tracer:
    """Owner of one run's span tree.

    ``wall_clock``/``cpu_clock`` are injectable for deterministic
    tests; production uses :func:`time.perf_counter` and
    :func:`time.process_time`.
    """

    def __init__(self,
                 wall_clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.process_time):
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._wall = wall_clock
        self._cpu = cpu_clock

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a span for the duration of the ``with`` block.

        The span is closed (clocks read, node linked to its parent)
        even when the block raises, so a failed run still leaves a
        coherent partial tree.
        """
        node = Span(name, parent=self.current)
        if node.parent is not None:
            node.parent.children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        node.start_wall = self._wall()
        node.start_cpu = self._cpu()
        try:
            yield node
        finally:
            node.end_cpu = self._cpu()
            node.end_wall = self._wall()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add into the innermost open span (no-op between spans)."""
        span = self.current
        if span is not None:
            span.count(name, amount)

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Depth-first ``(depth, span)`` pairs over all roots."""
        def visit(node: Span, depth: int) -> Iterator[tuple[int, Span]]:
            yield depth, node
            for child in node.children:
                yield from visit(child, depth + 1)

        for root in self.roots:
            yield from visit(root, 0)

    def find(self, name: str) -> Optional[Span]:
        """First span with ``name`` in depth-first order, else None."""
        for _depth, node in self.walk():
            if node.name == name:
                return node
        return None

    def to_dict(self) -> dict:
        """JSON-serializable form of the whole trace."""
        return {"spans": [root.to_dict() for root in self.roots]}

    @classmethod
    def from_dict(cls, data: dict) -> "Tracer":
        """Rebuild a (closed) tracer from its :meth:`to_dict` payload.

        The result has no open spans — it is a read-only view for
        reporting and export, which is exactly what the sweep parent
        needs after a worker ships its serialized span tree back.
        """
        tracer = cls()
        tracer.roots = [Span.from_dict(root)
                        for root in data.get("spans", [])]
        return tracer


def enable_tracing(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process tracer."""
    global _TRACER, ACTIVE
    _TRACER = tracer if tracer is not None else Tracer()
    ACTIVE = True
    return _TRACER


def disable_tracing() -> Optional[Tracer]:
    """Uninstall and return the process tracer (None when not tracing)."""
    global _TRACER, ACTIVE
    tracer, _TRACER = _TRACER, None
    ACTIVE = False
    return tracer


def tracing_enabled() -> bool:
    """True while a tracer is installed."""
    return ACTIVE


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or None."""
    return _TRACER


@contextmanager
def span(name: str) -> Iterator[Optional[Span]]:
    """Module-level span helper for phase-granularity call sites.

    Yields the open :class:`Span` when tracing is active and ``None``
    otherwise; the disabled path allocates nothing beyond the generator
    frame, which is why this helper must only wrap *phases*, never
    per-event work.
    """
    if not ACTIVE or _TRACER is None:
        yield None
        return
    with _TRACER.span(name) as node:
        yield node
