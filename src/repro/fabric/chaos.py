"""Deterministic fault injection (test-only): the one chaos policy.

:class:`FabricChaosPolicy` injects the failure modes of DESIGN.md §8's
failure matrix inside the process that runs a point — a fabric worker,
a local pool worker, or (degraded) the driver's own process — using a
seeded ``(key, attempt)`` draw so every chaos run replays identically.
The fabric faults fire in fabric workers:

- ``kill`` — the worker SIGKILLs itself mid-point: the transport goes
  EOF, the coordinator must detect the loss and re-lease the point (in
  a pool worker the process exits and the pool is rebuilt);
- ``blackhole`` — the worker suppresses heartbeats and sits on the
  finished result for ``delay_s``: the coordinator must declare it dead
  on heartbeat timeout, re-lease the point, and then *deduplicate* the
  stale completion when it finally arrives;
- ``corrupt`` — the worker emits a garbage frame in place of its
  result: the coordinator must quarantine the worker, not the sweep;
- ``duplicate`` — the worker sends its result frame twice: the second
  completion must be deduplicated, never double-journaled;
- ``latency`` — the worker sleeps ``latency_s`` before sending the
  result: deadlines must tolerate slow links without spurious expiry;
- ``partition`` — asymmetric partition: the worker keeps *sending*
  heartbeats but stops *receiving* coordinator frames, so its lease
  can never complete and the driver's deadline must expire it.

Two more fire in pool and fabric workers alike:

- ``hang`` — the worker stalls ``delay_s`` before running the point:
  the driver's ``point_timeout_s`` deadline must cancel and retry it;
- ``poison`` — the point raises :class:`~repro.experiments.parallel.ChaosError`:
  the plain retry path.

In the driver's own process ``kill``, ``hang`` and ``poison`` all
degrade to :class:`~repro.experiments.parallel.ChaosError` so the
parent survives its own chaos; the other faults do nothing outside a
fabric worker.  Chaos fires only on the first ``attempts`` attempts of
a point, so any retry budget ``>= attempts`` is guaranteed to
converge; ``targets`` scopes the blast radius to specific cache keys.
The policy serializes to JSON (:meth:`to_dict`/:meth:`from_dict`)
because it rides to fabric workers on their command line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional

from repro.experiments.parallel import _unit_hash

#: The fault kinds, in draw order.  A kind's probability widens the
#: cumulative draw only when it is nonzero, so adding or removing a
#: kind leaves every policy that does not use it drawing as before.
FABRIC_FAULTS = ("kill", "blackhole", "corrupt", "duplicate",
                 "latency", "partition", "hang", "poison")


@dataclass(frozen=True)
class FabricChaosPolicy:
    """Seeded, JSON-serializable fault injector (test-only)."""

    seed: int = 0
    kill: float = 0.0
    blackhole: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    latency: float = 0.0
    partition: float = 0.0
    hang: float = 0.0
    poison: float = 0.0
    attempts: int = 1
    #: How long a blackholed worker sits on its finished result before
    #: sending it anyway (to exercise the dedup path), and how long a
    #: hung worker stalls.
    delay_s: float = 2.0
    #: Injected send delay for the ``latency`` fault.
    latency_s: float = 0.1
    targets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in FABRIC_FAULTS:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if sum(getattr(self, name) for name in FABRIC_FAULTS) > 1.0 + 1e-9:
            raise ValueError("fault probabilities must sum to <= 1")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.latency_s < 0:
            raise ValueError("latency_s must be >= 0")
        object.__setattr__(self, "targets", tuple(self.targets))

    def action(self, key: str, attempt: int) -> Optional[str]:
        """The fault to inject for this (key, attempt), or None."""
        if attempt >= self.attempts:
            return None
        if self.targets and key not in self.targets:
            return None
        draw = _unit_hash("fabric-chaos", self.seed, key, attempt)
        threshold = 0.0
        for name in FABRIC_FAULTS:
            threshold += getattr(self, name)
            if draw < threshold:
                return name
        return None

    def to_dict(self) -> dict:
        """JSON-serializable form (the worker command-line payload)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FabricChaosPolicy":
        """Rebuild a policy from its :meth:`to_dict` payload."""
        names = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "targets" in kwargs:
            kwargs["targets"] = tuple(kwargs["targets"])
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON text (the ``--chaos`` worker argument)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FabricChaosPolicy":
        """Parse a policy from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))


__all__ = ["FABRIC_FAULTS", "FabricChaosPolicy"]
