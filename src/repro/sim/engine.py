"""Event loop, event queue and clock for the discrete-event simulation kernel.

The engine keeps ``(time, priority, sequence, event)`` entries in a
binary heap, so events dispatch in strict tuple order: by time, then
priority, then scheduling order.  Each :class:`Event` carries a list of
callbacks that fire when the event is processed;
:class:`~repro.sim.process.Process` resumption is just another callback.
The design mirrors simpy's core but is intentionally smaller: no
real-time support, no nested environments, and only the waits the
system model uses (timeouts, resource grants, store gets, gate levels,
all-of conditions).  Every queued event is dispatched.

The event queue, the dispatch loop, :class:`Event`, :class:`Timeout`,
:class:`AllOf`, process resumption, the FIFO
:class:`~repro.sim.resources.Resource` with its ``Request``, the
:class:`~repro.sim.resources.Gate`, the :mod:`~repro.sim.stats`
counters and the model's compiled operations (the scheduler's bursts,
the disk service, the lock table and the database engine's lock, read
after a miss, commit and client loop) are compiled: they live in
``_des.c``, built once on first import by :func:`repro.cbuild.load`
into this package's ``__pycache__``.  A failed build raises
:class:`ImportError`; there is no other implementation.  This module
adds the Python side: :meth:`Engine.run`'s checks and per-run tracing,
:meth:`Engine.queue_stats` and :func:`publish_scheduler_metrics`.

``AllOf(engine, events)`` completes when every child event has
completed, with their values by index (``{}`` without children), and
fails with the first child failure.  It is each child's callback,
after the callbacks the child already had, and schedules one event,
when the last child completes or the first fails.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

from repro import cbuild
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

_SOURCE = Path(__file__).resolve().with_name("_des.c")
#: The walk kernel's declarations, which the event kernel includes.
_WALK_HEADER = _SOURCE.parents[1] / "hw" / "_walk.h"


def _build(_name: str, scratch: Path) -> str:
    from setuptools import Distribution, Extension

    distribution = Distribution({"ext_modules": [Extension(
        "_des", sources=[str(_SOURCE)],
        extra_compile_args=list(cbuild.FLAGS))]})
    command = distribution.get_command_obj("build_ext")
    command.build_lib = command.build_temp = str(scratch)
    distribution.run_command("build_ext")
    [built] = command.get_outputs()
    return built


def _kernel(cache_dir: Path = _SOURCE.parent / "__pycache__"):
    """The compiled event kernel, building it into ``cache_dir`` once."""
    return cbuild.load(
        cbuild.build_name("_repro_des_", (_SOURCE, _WALK_HEADER)), _build,
        cache_dir,
        "repro.sim could not build its compiled event kernel: it needs "
        "setuptools and a C compiler (cc/gcc) with the Python headers",
        module="repro.sim._des")


_des = _kernel()

#: Priority for events that must run before ordinary events at the same time
#: (used for process start-up).
URGENT = 0
#: Default event priority.
NORMAL = 1

SimulationError = _des.SimulationError
Event = _des.Event
Timeout = _des.Timeout
#: The all-of condition (compiled; see the module docstring).
AllOf = _des.AllOf


class Engine(_des.Engine):
    """The simulation event loop and its event queue.

    ``now`` (also ``_now``) is the clock; ``timeout(delay, value=None)``
    and ``event()`` create events; ``close()`` ends the simulation for
    good, dropping every process, pending event and resource claim.

    >>> engine = Engine()
    >>> def proc(engine):
    ...     yield engine.timeout(5.0)
    ...     return engine.now
    >>> p = engine.process(proc(engine))
    >>> engine.run()
    >>> p.value
    5.0
    """

    def process(self, generator) -> "Process":
        """Register a generator (or a compiled operation) as a simulation
        process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event completing when all ``events`` complete."""
        return AllOf(self, events)

    def _dispatched(self) -> int:
        return self._sequence - self._pending

    def queue_stats(self) -> dict:
        """Event-queue counters (published by :func:`publish_scheduler_metrics`).

        ``scheduled = dispatched + pending``.  ``max_depth`` is the
        longest the heap has been.
        """
        return {
            "scheduled": self._sequence,
            "dispatched": self._dispatched(),
            "pending": self._pending,
            "max_depth": self.max_depth,
        }

    def run(self, until: Optional[float] = None,
            stop: Optional[tuple] = None) -> None:
        """Run until the schedule drains, the clock passes ``until``, or
        the ``stop`` condition holds.

        ``stop`` is a ``(counter, target)`` pair: the loop stops before
        the next event once ``counter.count >= target``.  Without it, a
        given ``until`` advances the clock to exactly ``until`` even if
        the last event fires earlier, so time-weighted statistics close
        their final interval consistently.  With it the clock stays at
        the last dispatched event, whichever limit ends the run.

        Tracing and metrics are checked once per call, never per event:
        the events a call retired are the change in :meth:`queue_stats`'
        ``dispatched`` across it.
        """
        if until is not None and until < self._now:
            raise ValueError(f"run(until={until}) is in the past (now={self._now})")
        if not (_tracing.ACTIVE or _metrics.ACTIVE):
            self._dispatch(until, stop)
            return
        started_at, dispatched = self._now, self._dispatched()
        with _tracing.span("des-event-loop") as span:
            self._dispatch(until, stop)
            events = self._dispatched() - dispatched
            if span is not None:
                span.count("events", events)
                span.count("sim_time_s", self._now - started_at)
        _metrics.inc("engine.runs")
        _metrics.inc("engine.events", events)
        _metrics.inc("engine.sim_time_s", self._now - started_at)


def publish_scheduler_metrics(engine: Engine,
                              census: Optional[dict[str, int]] = None) -> None:
    """Publish an engine's queue counters into the active metrics registry.

    One ``scheduler.*`` counter per :meth:`Engine.queue_stats` field,
    ``max_depth`` as a gauge.  Counters are cumulative per engine, so
    this must be called once per engine lifetime — the DES phase
    boundary in :meth:`repro.odb.system.OdbSystem.run` — never per
    ``run()`` call.

    ``census`` maps event kinds to the number of events of that kind
    the model scheduled (counted where each kind is created, never in
    the dispatch loop); each becomes ``engine.events.<kind>``, and
    ``engine.events.other`` is the remainder, so the kinds sum to
    ``scheduler.scheduled``.
    """
    if not _metrics.ACTIVE:
        return
    stats = engine.queue_stats()
    for field in ("scheduled", "dispatched"):
        _metrics.inc(f"scheduler.{field}", stats[field])
    _metrics.gauge("scheduler.max_depth", stats["max_depth"])
    if census is not None:
        for kind, count in census.items():
            _metrics.inc(f"engine.events.{kind}", count)
        _metrics.inc("engine.events.other",
                     stats["scheduled"] - sum(census.values()))


# Last: repro.sim.process imports this module's Engine and kernel.
from repro.sim.process import Process  # noqa: E402
