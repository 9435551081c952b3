"""Run manifests: what produced a result, recorded beside the result.

A :class:`RunManifest` captures everything needed to audit or reproduce
one configuration run — the cache key (config hash), seed and settings
fingerprint, package version, git revision, interpreter, wall/CPU time
and worker count — and serializes to JSON.  The runner persists one
beside every cached :class:`~repro.experiments.records.ConfigResult`
(``<key>.manifest.json`` in the cache directory), so a cached number
can always answer "which code, which seed, how long, how parallel".

Manifests are *descriptive* metadata: they never participate in cache
keys or golden comparisons, so timestamps and host details are free to
vary between machines without invalidating anything.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

#: Serialization generation of :class:`RunManifest`.  Version 2 added
#: the per-round ``round_deltas`` fixed-point trajectory; version 3
#: added workload provenance (``workload`` + ``workload_fingerprint``).
#: Older manifests on disk are simply unreadable (``load_manifest``
#: treats them as absent), which is safe because manifests are
#: descriptive.
MANIFEST_VERSION = 3


@lru_cache(maxsize=None)
def git_revision(root: Optional[str] = None) -> str:
    """Best-effort git revision of the repository containing ``root``.

    Reads ``.git/HEAD`` (and the ref file it points at) directly so no
    subprocess is spawned on the run hot path; returns ``"unknown"``
    outside a git checkout or on any read problem.
    """
    start = Path(root) if root is not None else Path(__file__).resolve()
    for candidate in [start] + list(start.parents):
        git_dir = candidate / ".git"
        if not git_dir.is_dir():
            continue
        try:
            head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
            if head.startswith("ref:"):
                ref = head.split(None, 1)[1]
                ref_path = git_dir / ref
                if ref_path.exists():
                    return ref_path.read_text(encoding="utf-8").strip()
                packed = git_dir / "packed-refs"
                if packed.exists():
                    for line in packed.read_text(
                            encoding="utf-8").splitlines():
                        if line.endswith(" " + ref):
                            return line.split()[0]
                return "unknown"
            return head
        except OSError:
            return "unknown"
    return "unknown"


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one configuration run."""

    #: The full cache/journal key (machine, W, C, P, fingerprints).
    config_key: str
    machine: str
    warehouses: int
    clients: int
    processors: int
    seed: int
    settings_fingerprint: str
    fault_fingerprint: Optional[str] = None
    #: Which declarative workload the run executed (``repro.workload``
    #: scenario name, or the file stem of a user spec).  The default
    #: code path and the shipped standard spec both record
    #: ``"odb-standard"`` — they are bit-identical by contract.
    workload: str = "odb-standard"
    #: Spec content fingerprint; ``None`` for the built-in default path
    #: (no spec object existed to hash).
    workload_fingerprint: Optional[str] = None
    package_version: str = ""
    git_rev: str = "unknown"
    python_version: str = ""
    platform: str = ""
    #: Pool width of the sweep this run belonged to (1 = serial).
    worker_count: int = 1
    #: Fabric worker identity when the point ran on a remote worker
    #: (:mod:`repro.fabric`); empty for local runs.  Descriptive, like
    #: the host fields — never part of cache keys or comparisons.
    worker_id: str = ""
    worker_host: str = ""
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0
    fixed_point_rounds: int = 0
    tracing_enabled: bool = False
    #: Fixed-point trajectory: one record per coupled round with the
    #: round's TPS/CPI iterate and its delta from the previous round
    #: (``None`` deltas on round 0).  Descriptive like every other
    #: manifest field — recorded unconditionally (two or three dicts
    #: per run) so even a cache-hit report can show how the original
    #: computation converged.
    round_deltas: list = field(default_factory=list)
    created_unix: float = field(default_factory=time.time)
    manifest_version: int = MANIFEST_VERSION

    def to_dict(self) -> dict:
        """Plain-dict form, ready for JSON serialization."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Rebuild a manifest from its :meth:`to_dict` payload."""
        version = data.get("manifest_version", 0)
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"manifest has version {version}, "
                f"this build reads {MANIFEST_VERSION}")
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    def to_json(self) -> str:
        """Canonical (sorted-keys) JSON; stable under round-trips."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse a manifest from JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: Path | str) -> Path:
        """Write the manifest as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "RunManifest":
        """Read a manifest from a JSON file on disk."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def environment_fields() -> dict:
    """The environment-derived manifest fields, computed once per call."""
    from repro import __version__

    return {
        "package_version": __version__,
        "git_rev": git_revision(),
        "python_version": sys.version.split()[0],
        "platform": platform.platform(),
    }
