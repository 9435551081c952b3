"""Result records and the sweep cache.

A :class:`ConfigResult` bundles everything one configuration run
produces: system-level metrics (DES), microarchitectural rates (trace
simulation), and the converged CPI solution.  Results serialize to JSON
so a sweep computed once (a couple of minutes) can feed every benchmark
and the EXPERIMENTS.md tables without re-simulating.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.cpi_model import CpiBreakdown, CpiSolution
from repro.hw.trace import MicroarchRates
from repro.obs import metrics as _metrics
from repro.odb.system import SystemMetrics

#: Serialization generation of :class:`ConfigResult`.  Bump whenever the
#: serialized shape changes (fields added/removed/retyped) so stale cache
#: and journal entries invalidate cleanly instead of falling through
#: ``from_dict``'s ``KeyError``/``TypeError`` path.
SCHEMA_VERSION = 2


class SchemaMismatchError(ValueError):
    """A serialized ConfigResult is from another schema generation."""


def payload_checksum(payload: dict) -> str:
    """Short stable content hash of a serialized result payload."""
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class ConfigResult:
    """Everything measured at one (machine, W, C, P) operating point."""

    machine: str
    warehouses: int
    clients: int
    processors: int
    system: SystemMetrics
    rates: MicroarchRates
    cpi: CpiSolution
    #: Iron-law throughput at 100% utilization from (P, F, IPX, CPI).
    tps_ironlaw: float
    fixed_point_rounds: int

    @property
    def tps(self) -> float:
        """Measured throughput (includes utilization below 100%)."""
        return self.system.tps

    @property
    def ipx(self) -> float:
        """Total instructions per transaction (user + OS)."""
        return self.system.ipx

    @property
    def effective_cpi(self) -> float:
        """IPX-weighted CPI over user and OS space."""
        total = self.system.ipx
        if total <= 0:
            return self.cpi.cpi
        return (self.system.user_ipx * self.cpi.user_cpi
                + self.system.os_ipx * self.cpi.os_cpi) / total

    def to_dict(self) -> dict:
        """Plain-dict form, ready for JSON serialization."""
        return {
            "schema_version": SCHEMA_VERSION,
            "machine": self.machine,
            "warehouses": self.warehouses,
            "clients": self.clients,
            "processors": self.processors,
            "system": dataclasses.asdict(self.system),
            "rates": dataclasses.asdict(self.rates),
            "cpi": {
                "breakdown": dataclasses.asdict(self.cpi.breakdown),
                "cpi": self.cpi.cpi,
                "bus_utilization": self.cpi.bus_utilization,
                "bus_transaction_time": self.cpi.bus_transaction_time,
                "iterations": self.cpi.iterations,
                "user_cpi": self.cpi.user_cpi,
                "os_cpi": self.cpi.os_cpi,
            },
            "tps_ironlaw": self.tps_ironlaw,
            "fixed_point_rounds": self.fixed_point_rounds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConfigResult":
        """Rebuild a result from its :meth:`to_dict` payload."""
        version = data.get("schema_version", 1)
        if version != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"serialized ConfigResult has schema_version {version}, "
                f"this build reads {SCHEMA_VERSION}")
        cpi_data = data["cpi"]
        solution = CpiSolution(
            breakdown=CpiBreakdown(**cpi_data["breakdown"]),
            cpi=cpi_data["cpi"],
            bus_utilization=cpi_data["bus_utilization"],
            bus_transaction_time=cpi_data["bus_transaction_time"],
            iterations=cpi_data["iterations"],
            user_cpi=cpi_data["user_cpi"],
            os_cpi=cpi_data["os_cpi"],
        )
        return cls(
            machine=data["machine"],
            warehouses=data["warehouses"],
            clients=data["clients"],
            processors=data["processors"],
            system=SystemMetrics(**data["system"]),
            rates=MicroarchRates(**data["rates"]),
            cpi=solution,
            tps_ironlaw=data["tps_ironlaw"],
            fixed_point_rounds=data["fixed_point_rounds"],
        )


def slug(name: str) -> str:
    """``name`` as a filesystem-safe file-name part.

    Derived machine names (``"xeon-mp-quad/l3=512KB"``) carry path
    separators and ``=``: every character but letters, digits, ``-`` and
    ``.`` becomes ``_``.  Cache keys, snapshot point keys, report stems
    and journal names all slug machine names this way, so it must never
    change: existing caches and journals are found by these names.
    """
    return "".join(c if c.isalnum() or c in "-." else "_" for c in name)


class ResultCache:
    """Crash-safe on-disk JSON cache of configuration results.

    Keyed by the run parameters plus a settings fingerprint (and a fault
    fingerprint when a fault plan is active); safe to delete at any time
    (results regenerate deterministically).  Disable with the
    ``REPRO_NO_CACHE`` environment variable.

    Durability and integrity semantics:

    - ``store`` writes through a temp file and ``os.replace``, so an
      interrupted run can never leave a truncated entry under the final
      name;
    - every entry is an envelope carrying ``schema_version`` and a
      payload ``checksum``; entries from an older schema generation are
      deleted silently (clean invalidation), while undecodable or
      checksum-inconsistent entries are *quarantined* — moved into
      ``<cache>/quarantine/`` for inspection — instead of being
      silently regenerated over.
    """

    QUARANTINE_DIR = "quarantine"

    def __init__(self, directory: Optional[Path] = None):
        if directory is None:
            directory = Path(__file__).resolve().parents[3] / "results" / "cache"
        self.directory = Path(directory)
        self.enabled = not os.environ.get("REPRO_NO_CACHE")
        #: Entries moved to quarantine over this cache's lifetime.
        self.quarantined = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def manifest_path(self, key: str) -> Path:
        """Where the run manifest of ``key`` lives, beside the result."""
        return self.directory / f"{key}.manifest.json"

    def store_manifest(self, key: str, manifest) -> Optional[Path]:
        """Persist a :class:`repro.obs.manifest.RunManifest` beside ``key``.

        Manifests are descriptive metadata (wall time, git revision,
        worker count): best-effort, never load-bearing, so a write
        failure is swallowed rather than failing the run.
        """
        if not self.enabled:
            return None
        try:
            return manifest.save(self.manifest_path(key))
        except OSError:  # pragma: no cover - metadata only
            return None

    def load_manifest(self, key: str):
        """The manifest stored beside ``key``, or None."""
        from repro.obs.manifest import RunManifest

        path = self.manifest_path(key)
        if not self.enabled or not path.exists():
            return None
        try:
            return RunManifest.load(path)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    @staticmethod
    def key_for(machine: str, warehouses: int, clients: int, processors: int,
                settings_fingerprint: str,
                fault_fingerprint: Optional[str] = None,
                workload_fingerprint: Optional[str] = None) -> str:
        """Filesystem-safe cache key for one configuration.

        ``workload_fingerprint`` is passed for every workload but the
        default ``odb-standard``, so a run that names no workload and
        ``--workload odb-standard`` (the same run) hit the same cache.
        """
        key = (f"{slug(machine)}-w{warehouses}-c{clients}-p{processors}"
               f"-{settings_fingerprint}")
        if fault_fingerprint:
            key += f"-f{fault_fingerprint}"
        if workload_fingerprint:
            key += f"-wl{workload_fingerprint}"
        return key

    def _quarantine(self, path: Path, key: Optional[str] = None) -> None:
        """Move a corrupt entry aside instead of regenerating over it.

        Counts into ``cache.quarantined`` and appends a
        ``cache-quarantine`` record naming the offending key to the
        metrics JSONL stream, so corruption surfaces in sweep reports
        instead of silently vanishing into a recompute.
        """
        target_dir = self.directory / self.QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
            self.quarantined += 1
            if _metrics.ACTIVE:
                _metrics.inc("cache.quarantined")
                _metrics.emit("cache-quarantine",
                              key=key if key is not None else path.stem,
                              file=str(target_dir / path.name))
        except OSError:  # pragma: no cover - racing deletion is fine
            pass

    def load(self, key: str) -> Optional[ConfigResult]:
        """Cached result for ``key``, or ``None`` (miss / corrupt entry).

        Publishes ``cache.hits`` / ``cache.misses`` /
        ``cache.quarantined`` counters when the metrics registry is
        active (one guarded call per load — DESIGN.md §10).
        """
        result = self._load(key)
        if _metrics.ACTIVE:
            _metrics.inc("cache.hits" if result is not None
                         else "cache.misses")
        return result

    def _load(self, key: str) -> Optional[ConfigResult]:
        if not self.enabled:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (json.JSONDecodeError, OSError):
            self._quarantine(path, key)
            return None
        if not isinstance(data, dict):
            self._quarantine(path, key)
            return None
        if data.get("schema_version") != SCHEMA_VERSION or "result" not in data:
            # A past schema generation (or the pre-envelope format):
            # cleanly invalidated, not an integrity problem.
            try:
                path.unlink()
            except OSError:  # pragma: no cover
                pass
            return None
        if payload_checksum(data["result"]) != data.get("checksum"):
            self._quarantine(path, key)
            return None
        try:
            return ConfigResult.from_dict(data["result"])
        except (SchemaMismatchError, KeyError, TypeError):
            self._quarantine(path, key)
            return None

    def store(self, key: str, result: ConfigResult) -> None:
        """Atomically publish a result under ``key``."""
        if not self.enabled:
            return
        if _metrics.ACTIVE:
            _metrics.inc("cache.stores")
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        payload = result.to_dict()
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "checksum": payload_checksum(payload),
            "result": payload,
        }
        # Atomic publication: a kill mid-write leaves only the temp file.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # a failure before the replace
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover
                    pass

    def clear(self) -> int:
        """Delete all cached entries, and the temp files a store killed
        before its replace left behind; returns the number of files
        removed."""
        if not self.directory.exists():
            return 0
        removed = 0
        for pattern in ("*.json", ".*.json.*.tmp"):
            for path in self.directory.glob(pattern):
                path.unlink()
                removed += 1
        return removed
