"""Generator-based simulation processes.

A process wraps a generator.  Every object the generator yields must be an
:class:`~repro.sim.engine.Event`; the process suspends until the event is
processed, then resumes with the event's value (or with the event's
exception thrown into it).  A process is itself an event and completes with
the generator's return value, so processes can wait on each other.

Resumption is compiled (``_des.c``): a process is its own callback, and
the dispatch loop steps its generator directly.  A yield of anything
but a pending event takes the rare path: a non-event or the process
itself is thrown back into the generator as a
:class:`~repro.sim.engine.SimulationError`, and an event already
processed resumes the process at once.  A crash fails the process for
its waiters, or raises out of :meth:`~repro.sim.engine.Engine.run` when
nobody waits on it.
"""

from __future__ import annotations

from typing import Generator

from repro.obs import tracing as _tracing
from repro.sim.engine import Engine, _des


class Process(_des.Process):
    """A running simulation process; completes when its generator returns."""

    __slots__ = ()

    def __init__(self, engine: Engine, generator: Generator):
        super().__init__(engine, generator)
        if _tracing.ACTIVE:  # phase-level observability, never per event
            _tracing.current_tracer().count("processes_started")
