"""Sweep snapshots: one sweep frozen as a diffable, deterministic artifact.

The paper's argument is built from *comparisons* — ODB against the TPC
benchmarks across Tables 2–4, scaling curves against each other — so
the repro needs a durable, comparable record of what a sweep measured.
A :class:`SweepSnapshot` is that record: per-point headline metrics
keyed by grid coordinates, the aggregated phase flame table, the merged
metrics-registry totals, and the provenance needed to *explain* a
difference (workload fingerprint, package/git revision, fleet
shape).  :mod:`repro.obs.diff` consumes two of them.

Determinism contract (DESIGN.md §13):

- The **canonical payload** contains only values that are bit-stable
  across repeated runs of the same configuration: result metrics
  (deterministic by the seed-tree contract), flame *call counts*,
  metric counters/gauges, and provenance identity fields.  It is
  serialized with sorted keys and checksummed
  (:meth:`SweepSnapshot.checksum`), and two snapshots of the same sweep
  are byte-identical in canonical form.
- Wall-clock facts (per-point cost, flame timings, timing summaries)
  live in the **annex**, outside the checksum: they are still captured
  and still diffable, but as informational rows that can never flip a
  CI verdict.  No wall-clock *timestamp* is stored anywhere, so
  reconstructing a snapshot twice from the same artifacts yields
  byte-identical files.

Snapshots are writable from live telemetry sweeps
(:meth:`SweepSnapshot.from_points`, behind ``repro sweep --snapshot``)
and reconstructable retroactively from the artifacts sweeps persist: a
result-cache directory (:meth:`SweepSnapshot.from_cache_dir`) or a
sweep journal (:meth:`SweepSnapshot.from_journal`).  All three go
through one fold (:func:`repro.obs.sweep_report.fold_sweep`); the
retroactive ones feed it each point's key, result and manifest, with no
trace or metrics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.experiments.records import ConfigResult, ResultCache, slug
from repro.obs.sweep_report import PointInput, fold_sweep

if TYPE_CHECKING:
    from repro.obs.manifest import RunManifest

#: Serialization generation of :class:`SweepSnapshot`.  Bump whenever
#: the canonical payload shape changes so stale snapshots fail loudly
#: (:class:`SnapshotError`) instead of diffing garbage.
SNAPSHOT_VERSION = 1

#: ``kind`` discriminator stamped into every snapshot file.
SNAPSHOT_KIND = "sweep-snapshot"

#: The per-point headline metrics a snapshot captures, in render order.
#: Every value is derived from the :class:`ConfigResult` alone, so the
#: set is deterministic by the seed-tree contract (DESIGN.md §8).
POINT_METRICS = (
    "tps",
    "tps_ironlaw",
    "cpi",
    "user_cpi",
    "os_cpi",
    "l3_mpi_k",
    "util",
    "reads_per_txn",
    "cs_per_txn",
    "fixed_point_rounds",
)

#: Counters that describe what a sweep cost, not what it measured: they
#: depend on which points happened to share a worker process, so they
#: stay out of the canonical payload.
COST_COUNTERS = frozenset({"odb.prewarm.reused"})


class SnapshotError(ValueError):
    """A snapshot file is missing, malformed, or from another schema."""


def point_key(machine: str, warehouses: int, clients: int,
              processors: int) -> str:
    """Grid-coordinate key a point aligns under when diffing.

    Deliberately *not* the cache/config key: two sweeps of the same
    grid under different workloads (or settings, or code revisions)
    must align point-for-point so their metrics can be compared — the
    fingerprints that differ belong in the provenance diff, not in the
    join key.
    """
    return f"{slug(machine)}-w{warehouses}-c{clients}-p{processors}"


def point_metrics(result: "ConfigResult") -> dict[str, float]:
    """The snapshot's headline metrics of one result (POINT_METRICS)."""
    return {
        "tps": result.tps,
        "tps_ironlaw": result.tps_ironlaw,
        "cpi": result.cpi.cpi,
        "user_cpi": result.cpi.user_cpi,
        "os_cpi": result.cpi.os_cpi,
        "l3_mpi_k": result.rates.l3_misses_per_instr * 1000,
        "util": result.system.cpu_utilization,
        "reads_per_txn": result.system.reads_per_txn,
        "cs_per_txn": result.system.context_switches_per_txn,
        "fixed_point_rounds": float(result.fixed_point_rounds),
    }


def _sorted_unique(values) -> list:
    """Deterministic list form of a value set (drops empties)."""
    return sorted({value for value in values
                   if value not in (None, "", "unknown")})


def _provenance_from_manifests(manifests: Sequence["RunManifest"]) -> dict:
    """Identity fields shared by (or listed across) a sweep's manifests.

    Single-valued fields collapse to the value; genuinely mixed fields
    keep the sorted list, so a heterogeneous sweep is visible rather
    than silently flattened.
    """
    def collapse(values):
        unique = _sorted_unique(values)
        if not unique:
            return None
        return unique[0] if len(unique) == 1 else unique

    return {
        "workload": collapse(m.workload for m in manifests),
        "workload_fingerprint": collapse(m.workload_fingerprint
                                         for m in manifests),
        "settings_fingerprint": collapse(m.settings_fingerprint
                                         for m in manifests),
        "fault_fingerprint": collapse(m.fault_fingerprint
                                      for m in manifests),
        "package_version": collapse(m.package_version for m in manifests),
        "git_rev": collapse(m.git_rev for m in manifests),
        "seed": collapse(m.seed for m in manifests),
        "fleet": {
            "worker_count": max((m.worker_count for m in manifests),
                                default=1),
        },
    }


def _empty_provenance() -> dict:
    """Provenance shape when no manifests survived (journal-only)."""
    return {
        "workload": None,
        "workload_fingerprint": None,
        "settings_fingerprint": None,
        "fault_fingerprint": None,
        "package_version": None,
        "git_rev": None,
        "seed": None,
        "fleet": {"worker_count": 1},
    }


@dataclass
class SweepSnapshot:
    """One sweep's results, flame table, metrics, and provenance.

    ``points`` maps :func:`point_key` → ``{"machine", "warehouses",
    "clients", "processors", "config_key", "metrics": {...}}``;
    ``flame`` is the canonical flame table (``name``/``calls`` rows,
    sorted by name); ``metrics`` carries the merged
    registry's counters and gauges; ``provenance`` the identity fields;
    ``annex`` the non-canonical timing facts (see the module
    docstring).
    """

    points: dict[str, dict] = field(default_factory=dict)
    flame: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=lambda: {"counters": {},
                                                   "gauges": {}})
    provenance: dict = field(default_factory=_empty_provenance)
    annex: dict = field(default_factory=dict)
    source: str = ""

    # -- construction -------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence,
                    source: str = "telemetry-sweep") -> "SweepSnapshot":
        """Snapshot a sweep's points through :func:`fold_sweep`.

        ``points`` is what :func:`repro.experiments.parallel.run_sweep`
        returns (:class:`~repro.experiments.parallel.PointTelemetry`;
        ``None`` entries from skipped points are ignored), or the
        :class:`~repro.obs.sweep_report.PointInput` entries the
        cache-directory and journal reconstructions rebuild.
        """
        fold = fold_sweep(points)
        by_key: dict[str, dict] = {}
        costs: dict[str, dict] = {}
        for point in fold.points:
            result = point.result
            key = point_key(result.machine, result.warehouses,
                            result.clients, result.processors)
            by_key[key] = {
                "machine": result.machine,
                "warehouses": result.warehouses,
                "clients": result.clients,
                "processors": result.processors,
                "config_key": point.key,
                "metrics": point_metrics(result),
            }
            manifest = point.manifest
            if manifest is not None:
                costs[key] = {"wall_s": manifest.wall_time_s,
                              "cpu_s": manifest.cpu_time_s}
        flame = []
        timings = {}
        for agg in sorted(fold.phases, key=lambda a: a.name):
            flame.append({"name": agg.name, "calls": agg.calls})
            timings[agg.name] = {"wall_s": agg.wall_s,
                                 "self_s": agg.self_s,
                                 "cpu_s": agg.cpu_s,
                                 "max_wall_s": agg.max_wall_s}
        registry = fold.registry
        counters = {name: value
                    for name, value in sorted(registry.counters.items())
                    if name not in COST_COUNTERS}
        manifests = [point.manifest for point in fold.points
                     if point.manifest is not None]
        return cls(
            points=dict(sorted(by_key.items())),
            flame=flame,
            metrics={"counters": counters,
                     "gauges": dict(sorted(registry.gauges.items()))},
            provenance=(_provenance_from_manifests(manifests)
                        if manifests else _empty_provenance()),
            annex={"point_costs": dict(sorted(costs.items())),
                   "flame_timings": dict(sorted(timings.items())),
                   "metric_timings": dict(sorted(registry.timings.items()))},
            source=source,
        )

    @classmethod
    def from_cache_dir(cls, directory: Path | str) -> "SweepSnapshot":
        """Reconstruct a snapshot from a result-cache directory.

        Loads every valid ``<key>.json`` entry (corrupt entries are
        quarantined by the cache exactly as during a sweep) plus the
        manifests stored beside them, so historical sweeps can be
        snapshotted without re-running anything.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise SnapshotError(f"not a cache directory: {directory}")
        cache = ResultCache(directory)
        points = []
        for path in sorted(directory.glob("*.json")):
            if path.name.endswith(".manifest.json"):
                continue
            key = path.stem
            result = cache.load(key)
            if result is not None:
                points.append(PointInput(key, result,
                                         cache.load_manifest(key)))
        if not points:
            raise SnapshotError(
                f"no loadable cached results under {directory}")
        return cls.from_points(points, source=f"cache:{directory.name}")

    @classmethod
    def from_journal(cls, path: Path | str,
                     cache_dir: Path | str | None = None) -> "SweepSnapshot":
        """Reconstruct a snapshot from a :class:`SweepJournal` file.

        Manifests are pulled from ``cache_dir``, the result cache the
        journaled sweep wrote, for the keys cached there; without it,
        or for a key it does not hold, a journal alone still yields a
        fully diffable metrics snapshot.
        """
        from repro.experiments.records import ResultCache
        from repro.experiments.resilience import SweepJournal

        path = Path(path)
        if not path.is_file():
            raise SnapshotError(f"no journal file at {path}")
        journal = SweepJournal(path)
        completed = journal.load()
        if not completed:
            raise SnapshotError(f"journal {path} holds no valid points")
        cache = None if cache_dir is None else ResultCache(Path(cache_dir))
        return cls.from_points(
            [PointInput(key, result,
                        None if cache is None else cache.load_manifest(key))
             for key, result in completed.items()],
            source=f"journal:{path.name}")

    # -- serialization ------------------------------------------------

    def canonical_dict(self) -> dict:
        """The deterministic, checksummed payload (no timing facts)."""
        return {
            "schema_version": SNAPSHOT_VERSION,
            "kind": SNAPSHOT_KIND,
            "points": self.points,
            "flame": self.flame,
            "metrics": self.metrics,
            "provenance": self.provenance,
        }

    def canonical_json(self) -> str:
        """Canonical payload as sorted-keys JSON (byte-stable)."""
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=1)

    def checksum(self) -> str:
        """Short blake2b digest of the canonical payload."""
        return hashlib.blake2b(self.canonical_json().encode(),
                               digest_size=8).hexdigest()

    def to_dict(self) -> dict:
        """Full file form: canonical payload + checksum + annex."""
        return {
            "schema_version": SNAPSHOT_VERSION,
            "kind": SNAPSHOT_KIND,
            "checksum": self.checksum(),
            "source": self.source,
            "canonical": self.canonical_dict(),
            "annex": self.annex,
        }

    def to_json(self) -> str:
        """File form as sorted-keys JSON (no timestamps anywhere)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSnapshot":
        """Rebuild a snapshot from its :meth:`to_dict` payload."""
        if not isinstance(data, dict) or data.get("kind") != SNAPSHOT_KIND:
            raise SnapshotError("not a sweep snapshot payload")
        version = data.get("schema_version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot has schema_version {version!r}, "
                f"this build reads {SNAPSHOT_VERSION}")
        canonical = data.get("canonical")
        if not isinstance(canonical, dict):
            raise SnapshotError("snapshot payload has no canonical section")
        snapshot = cls(
            points=dict(canonical.get("points", {})),
            flame=list(canonical.get("flame", [])),
            metrics=dict(canonical.get("metrics",
                                       {"counters": {}, "gauges": {}})),
            provenance=dict(canonical.get("provenance",
                                          _empty_provenance())),
            annex=dict(data.get("annex", {})),
            source=str(data.get("source", "")),
        )
        stored = data.get("checksum")
        if stored is not None and stored != snapshot.checksum():
            raise SnapshotError(
                f"snapshot checksum mismatch: stored {stored}, "
                f"recomputed {snapshot.checksum()}")
        return snapshot

    @classmethod
    def from_json(cls, text: str) -> "SweepSnapshot":
        """Parse a snapshot from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SnapshotError(f"snapshot is not valid JSON: {error}")
        return cls.from_dict(data)

    def save(self, path: Path | str) -> Path:
        """Write the snapshot file; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "SweepSnapshot":
        """Read a snapshot file from disk."""
        path = Path(path)
        if not path.is_file():
            raise SnapshotError(f"no snapshot file at {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))

    # -- convenience --------------------------------------------------

    @property
    def grid(self) -> list[int]:
        """Sorted distinct warehouse counts across the points."""
        return sorted({entry["warehouses"] for entry in self.points.values()})

    def describe(self) -> str:
        """One-line summary (CLI progress lines, report titles)."""
        workload = self.provenance.get("workload") or "?"
        return (f"{len(self.points)} point(s), workload {workload}, "
                f"checksum {self.checksum()}")


def resolve_snapshot(reference: Path | str,
                     cache_dir: Path | str | None = None) -> SweepSnapshot:
    """A snapshot from whatever artifact ``reference`` names.

    Accepts a snapshot JSON file, a sweep-journal ``.jsonl`` file, or a
    result-cache directory — the three places sweep output already
    lives — so ``repro diff`` can compare any two of them directly.  A
    journal takes its manifests from ``cache_dir``, the cache its sweep
    wrote (:meth:`SweepSnapshot.from_journal`).
    """
    path = Path(reference)
    if path.is_dir():
        return SweepSnapshot.from_cache_dir(path)
    if not path.is_file():
        raise SnapshotError(
            f"{reference}: not a snapshot file, journal, or cache dir")
    if path.suffix == ".jsonl":
        return SweepSnapshot.from_journal(path, cache_dir)
    try:
        return SweepSnapshot.load(path)
    except SnapshotError:
        # A journal with an unusual extension still round-trips.
        return SweepSnapshot.from_journal(path, cache_dir)


__all__ = [
    "POINT_METRICS",
    "SNAPSHOT_KIND",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SweepSnapshot",
    "point_key",
    "point_metrics",
    "resolve_snapshot",
]
