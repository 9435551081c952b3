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
from repro.sim.engine import URGENT, Engine, Event, SimulationError, Timeout


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever the interrupter supplied.
    """

    @property
    def cause(self) -> Any:
        """Human-readable blocking cause, for diagnostics."""
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process; completes when its generator returns."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, engine: Engine, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(engine)
        self._generator = generator
        self._waiting_on: Event | None = None
        if _tracing.ACTIVE:  # phase-level observability, never per event
            _tracing.current_tracer().count("processes_started")
        # Kick off the process at the current simulation time.
        bootstrap = Event(engine)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed(None, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the event
        may still fire, but this process no longer reacts to it).
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        waiting_on = self._waiting_on
        if waiting_on is not None:
            try:
                waiting_on.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
            # An interrupted sleep leaves its Timeout orphaned on the
            # schedule: nobody waits on it anymore, so cancel it and let
            # the engine's lazy-cancellation compaction reclaim the
            # entry instead of carrying it until its deadline pops.
            if (isinstance(waiting_on, Timeout) and not waiting_on.callbacks
                    and not waiting_on.processed):
                waiting_on.cancel()
        failer = Event(self.engine)
        failer.add_callback(self._resume)
        failer._triggered = True
        failer._ok = False
        failer._value = Interrupt(cause)
        self.engine._schedule(failer, delay=0.0, priority=URGENT)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        to_throw = None if event.ok else event.value
        while True:
            try:
                if to_throw is not None:
                    target = self._generator.throw(to_throw)
                else:
                    target = self._generator.send(event.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                if not self.callbacks:
                    # Nobody is waiting on this process: surface the crash
                    # instead of swallowing it.
                    raise
                self.fail(exc)
                return
            if not isinstance(target, Event):
                to_throw = SimulationError(
                    f"process yielded a non-event: {target!r}")
                continue
            if target is self:
                to_throw = SimulationError("process waited on itself")
                continue
            break
        self._waiting_on = target
        target.add_callback(self._resume)
