"""Generator-based simulation processes.

A process wraps a generator.  Every object the generator yields must be an
:class:`~repro.sim.engine.Event`; the process suspends until the event is
processed, then resumes with the event's value (or with the event's
exception thrown into it).  A process is itself an event and completes with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.obs import tracing as _tracing
from repro.sim.engine import URGENT, Engine, Event, SimulationError


class Process(Event):
    """A running simulation process; completes when its generator returns."""

    __slots__ = ("_generator", "_wake")

    def __init__(self, engine: Engine, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(engine)
        self._generator = generator
        # The resume callback, bound once: every wait appends it.
        self._wake = self._resume
        if _tracing.ACTIVE:  # phase-level observability, never per event
            _tracing.current_tracer().count("processes_started")
        # Kick off the process at the current simulation time.
        bootstrap = Event(engine)
        bootstrap.add_callback(self._wake)
        bootstrap.succeed(None, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        # Every DES event that wakes a process lands here, so the common
        # case is straight-line: step the generator and wait on the
        # pending event it yields.  Anything else goes to _settle.
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._crash(exc)
            return
        if (isinstance(target, Event) and target is not self
                and not target._processed):
            target.callbacks.append(self._wake)
        else:
            self._settle(target)

    def _settle(self, target: Any) -> None:
        """The rare yields: a non-event or the process itself (thrown
        back into the generator as a :class:`SimulationError`), or an
        event already processed (resumes at once)."""
        while not isinstance(target, Event) or target is self:
            if target is self:
                error = SimulationError("process waited on itself")
            else:
                error = SimulationError(
                    f"process yielded a non-event: {target!r}")
            try:
                target = self._generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._crash(exc)
                return
        target.add_callback(self._wake)

    def _crash(self, exc: BaseException) -> None:
        if not self.callbacks:
            # Nobody is waiting on this process: surface the crash
            # instead of swallowing it.
            raise exc
        self.fail(exc)
