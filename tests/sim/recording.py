"""Observe a running DES at the process boundary.

The dispatch loop is compiled, so a test cannot hook the scheduling or
dispatch of single events.  What it can hook is every process: each
generator handed to :meth:`Engine.process` is wrapped in a trampoline
that steps it exactly as the process would and calls a recorder before
every resume.  The trampoline forwards sent values, thrown exceptions,
return values and crashes unchanged, so the wrapped simulation runs
the same schedule as an unwrapped one.
"""

from __future__ import annotations

import itertools

from repro.sim.engine import Engine


def trampoline(generator, on_resume):
    """A generator that runs ``generator`` step for step, calling
    ``on_resume()`` before each step."""
    value, error = None, None
    while True:
        on_resume()
        try:
            if error is None:
                target = generator.send(value)
            else:
                target = generator.throw(error)
        except StopIteration as stop:
            return stop.value
        try:
            value, error = (yield target), None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as exc:
            value, error = None, exc


def record_resumes(monkeypatch, on_resume) -> None:
    """Wrap every process started from now on: ``on_resume(engine,
    ordinal)`` runs before each of its resumes, ``ordinal`` counting
    the processes in start order."""
    start = Engine.process
    ordinals = itertools.count()

    def process(engine, generator):
        ordinal = next(ordinals)
        return start(engine, trampoline(
            generator, lambda: on_resume(engine, ordinal)))

    monkeypatch.setattr(Engine, "process", process)
