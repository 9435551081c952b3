"""Discrete-event simulation kernel.

A small, dependency-free, simpy-like engine built for this reproduction.
Processes are Python generators that ``yield`` events; the engine advances
a virtual clock through a binary heap of scheduled events.

Public surface:

- :class:`~repro.sim.engine.Engine` — the event loop, its event queue
  (one binary heap with lazy cancellation) and the clock.
- :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout` —
  waitable primitives.
- :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Interrupt`
  — generator-based processes.
- :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.Gate` — contention primitives.
- :mod:`~repro.sim.randomness` — named, independently seeded RNG streams.
- :mod:`~repro.sim.stats` — time-weighted statistics helpers.
"""

from repro.sim.engine import Engine, Event, Timeout, AllOf, AnyOf, SimulationError
from repro.sim.process import Process, Interrupt
from repro.sim.resources import Resource, Store, Gate
from repro.sim.randomness import RandomStreams
from repro.sim.stats import TimeWeighted, Tally, Counter

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Process",
    "Interrupt",
    "Resource",
    "Store",
    "Gate",
    "RandomStreams",
    "TimeWeighted",
    "Tally",
    "Counter",
]
