"""Declarative fault injection for the simulated testbed.

The paper measures a *healthy* Xeon server; this module lets the same
testbed be exercised on a degraded substrate, in the spirit of "OLTP on
Hardware Islands": OLTP behavior shifts qualitatively when the hardware
under it changes, so a scaling methodology should be checked against a
less-than-perfect machine too.

A :class:`FaultPlan` is a pure-data description of every fault to
inject.  It is

- **deterministic** — every stochastic fault decision draws from a
  named stream derived from ``plan.seed``, independent of the workload
  streams, so the same plan over the same configuration reproduces the
  same run bit-for-bit;
- **serializable** — plans round-trip through JSON (``to_json`` /
  ``from_json``) so the CLI can load them with ``--faults plan.json``;
- **strictly opt-in** — with no plan installed, no fault code runs, no
  fault stream is created, and every baseline number is unchanged.

Fault models:

- :class:`DiskDegradation` — per-disk (or array-wide) service-time
  inflation plus hard outage windows during which the disk serves
  nothing and its queue grows (``osmodel.disks``);
- :class:`LogStall` — wall-clock windows during which the log writer
  cannot flush, so group-commit waits balloon (``db.redo``);
- :class:`LockStorm` — a background process that repeatedly grabs the
  hot warehouse/district rows and sits on them, manufacturing the
  paper's "database block contention" on demand (``db.locks``);
- :class:`TransientAborts` — seeded transaction aborts at commit time
  (deadlock victims, ORA-style transient errors); clients retry with
  capped exponential backoff per :class:`RetryPolicy`
  (``odb.client``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


def _check_windows(windows: tuple[tuple[float, float], ...],
                   what: str) -> None:
    for start, end in windows:
        if start < 0 or end <= start:
            raise ValueError(
                f"{what} window must satisfy 0 <= start < end, "
                f"got ({start}, {end})")


@dataclass(frozen=True)
class DiskDegradation:
    """Degrade one data disk (or the whole array with ``disk=-1``).

    ``latency_factor`` multiplies the lognormal service time of every
    request the disk serves; ``outages`` are simulated-time windows
    during which the disk serves nothing at all — requests already at
    the head of its queue wait for the window to close.
    """

    #: Data-disk index, or -1 to target every data disk.
    disk: int = -1
    latency_factor: float = 1.0
    outages: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.disk < -1:
            raise ValueError("disk must be a data-disk index or -1 (all)")
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1 (degradation)")
        object.__setattr__(self, "outages",
                           tuple(tuple(w) for w in self.outages))
        _check_windows(self.outages, "outage")


@dataclass(frozen=True)
class LogStall:
    """Windows during which the log writer cannot complete a flush."""

    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows",
                           tuple(tuple(w) for w in self.windows))
        _check_windows(self.windows, "log-stall")


@dataclass(frozen=True)
class LockStorm:
    """Periodic hostile holder of the hot warehouse/district rows.

    From ``start_s`` for ``duration_s``, a background process picks
    ``warehouses_per_burst`` warehouses, takes their warehouse and
    district row locks (in the same global order the clients use, so no
    deadlock is possible), holds them ``hold_s``, releases, and sleeps
    ``interval_s`` before the next burst.
    """

    start_s: float = 0.0
    duration_s: float = 1.0
    warehouses_per_burst: int = 1
    hold_s: float = 0.05
    interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("storm needs start_s >= 0 and duration_s > 0")
        if self.warehouses_per_burst <= 0:
            raise ValueError("warehouses_per_burst must be positive")
        if self.hold_s <= 0 or self.interval_s < 0:
            raise ValueError("hold_s must be > 0 and interval_s >= 0")


@dataclass(frozen=True)
class TransientAborts:
    """Seeded transient aborts decided at commit time.

    ``probability`` is the per-transaction base chance; the effective
    chance is scaled by the transaction type's write footprint (see
    :attr:`repro.odb.transactions.PlanType.abort_weight`), so write-heavy
    transactions — the plausible deadlock victims — abort more often.
    The scale averages 1.0 over the running mix, so ``probability`` is
    the mean abort chance of an attempt in any workload.
    """

    probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("abort probability must be in [0, 1]")


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry of transiently aborted transactions."""

    base_backoff_s: float = 0.005
    multiplier: float = 2.0
    max_backoff_s: float = 0.080
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError(
                "need 0 <= base_backoff_s <= max_backoff_s")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Deterministic backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.max_backoff_s,
                   self.base_backoff_s * self.multiplier ** (attempt - 1))


@dataclass(frozen=True)
class FaultPlan:
    """Everything to inject into one run, as pure data."""

    seed: int = 1
    disks: tuple[DiskDegradation, ...] = ()
    log_stalls: tuple[LogStall, ...] = ()
    lock_storms: tuple[LockStorm, ...] = ()
    aborts: Optional[TransientAborts] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "disks", tuple(self.disks))
        object.__setattr__(self, "log_stalls", tuple(self.log_stalls))
        object.__setattr__(self, "lock_storms", tuple(self.lock_storms))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form, ready for JSON serialization."""
        return {
            "seed": self.seed,
            "disks": [dataclasses.asdict(d) for d in self.disks],
            "log_stalls": [dataclasses.asdict(s) for s in self.log_stalls],
            "lock_storms": [dataclasses.asdict(s) for s in self.lock_storms],
            "aborts": (dataclasses.asdict(self.aborts)
                       if self.aborts is not None else None),
            "retry": dataclasses.asdict(self.retry),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from its :meth:`to_dict` payload."""
        def windows(raw):
            return tuple(tuple(w) for w in raw)

        return cls(
            seed=data.get("seed", 1),
            disks=tuple(
                DiskDegradation(disk=d["disk"],
                                latency_factor=d["latency_factor"],
                                outages=windows(d.get("outages", ())))
                for d in data.get("disks", ())),
            log_stalls=tuple(
                LogStall(windows=windows(s.get("windows", ())))
                for s in data.get("log_stalls", ())),
            lock_storms=tuple(
                LockStorm(**s) for s in data.get("lock_storms", ())),
            aborts=(TransientAborts(**data["aborts"])
                    if data.get("aborts") else None),
            retry=(RetryPolicy(**data["retry"])
                   if data.get("retry") else RetryPolicy()),
        )

    def to_json(self, indent: int = 2) -> str:
        """JSON text form (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Path | str) -> "FaultPlan":
        """Read a plan from a JSON file on disk."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def fingerprint(self) -> str:
        """Short stable hash for cache keys — faulted results must not
        collide with healthy ones."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.blake2b(canonical.encode(), digest_size=6).hexdigest()


# -- runtime models ----------------------------------------------------------


class DiskFaultModel:
    """Resolved per-disk degradation state for one :class:`DiskArray`.

    Answers two questions the array asks while serving a request on data
    disk ``index`` at simulated time ``now``: by how much is service
    inflated, and how long must the disk sit out an outage first.
    """

    def __init__(self, plan: FaultPlan, data_disk_count: int):
        self._factors = [1.0] * data_disk_count
        self._outages: list[list[tuple[float, float]]] = [
            [] for _ in range(data_disk_count)]
        for spec in plan.disks:
            targets = (range(data_disk_count) if spec.disk == -1
                       else [spec.disk])
            for index in targets:
                if not 0 <= index < data_disk_count:
                    raise ValueError(
                        f"disk index {index} out of range "
                        f"(array has {data_disk_count} data disks)")
                self._factors[index] *= spec.latency_factor
                self._outages[index].extend(spec.outages)
        for windows in self._outages:
            windows.sort()

    def latency_factor(self, index: int) -> float:
        """Current service-time multiplier for disk ``index``."""
        return self._factors[index]

    def outage_wait_s(self, index: int, now: float) -> float:
        """Seconds until the disk may serve again (0 when healthy)."""
        for start, end in self._outages[index]:
            if start <= now < end:
                return end - now
            if start > now:
                break
        return 0.0


def stall_wait_s(stalls: tuple[LogStall, ...], now: float) -> float:
    """Seconds until every log-stall window covering ``now`` has closed."""
    wait = 0.0
    for stall in stalls:
        for start, end in stall.windows:
            if start <= now < end:
                wait = max(wait, end - now)
    return wait


def lock_storm_process(engine, lock_table, storm: LockStorm,
                       warehouses: int, rng, storm_index: int = 0):
    """Background hostile holder of hot rows (a simulation process).

    Acquires the warehouse and district row locks of a few warehouses in
    the same global order the clients use — ``("wh", w)`` before
    ``("dist", w)``, warehouses ascending — so the no-deadlock invariant
    of ordered acquisition holds against both clients and other storms.

    ``lock_table`` is duck-typed (``acquire_many`` / ``release_all``) so
    this module stays import-free of the database layer.
    """
    yield engine.timeout(storm.start_s)
    deadline = storm.start_s + storm.duration_s
    burst = 0
    while engine.now < deadline:
        burst += 1
        owner = ("fault-storm", storm_index, burst)
        count = min(storm.warehouses_per_burst, warehouses)
        picks = sorted(rng.sample(range(warehouses), count))
        keys = [key for w in picks for key in (("wh", w), ("dist", w))]
        yield from lock_table.acquire_many(owner, keys)
        yield engine.timeout(storm.hold_s)
        lock_table.release_all(owner)
        if storm.interval_s > 0:
            yield engine.timeout(storm.interval_s)


def publish_fault_metrics(plan: FaultPlan, system_metrics) -> None:
    """Publish one faulted run's injection totals into :mod:`repro.obs.metrics`.

    Called by the runner after a faulted run completes (and only when
    the metrics registry is active): counts the faulted run, the fault
    mechanisms the plan armed, and the observed abort/retry volume —
    totals the simulation already computed, so publishing can never
    perturb a result.  ``system_metrics`` is the run's
    :class:`~repro.odb.system.SystemMetrics`.
    """
    from repro.obs import metrics as _metrics

    if not _metrics.ACTIVE:
        return
    _metrics.inc("faults.runs")
    _metrics.inc("faults.disk_degradations", len(plan.disks))
    _metrics.inc("faults.log_stalls", len(plan.log_stalls))
    _metrics.inc("faults.lock_storms", len(plan.lock_storms))
    transactions = getattr(system_metrics, "transactions", 0)
    _metrics.inc("faults.aborts",
                 system_metrics.aborts_per_txn * transactions)
    _metrics.inc("faults.retries",
                 system_metrics.retries_per_txn * transactions)
