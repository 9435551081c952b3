"""The declarative workload spec model.

A workload is *data*: a named set of weighted transaction types, each
built from block-touch rules with a parameter generator (zipf /
uniform / fixed / append), over either the default ODB segment layout
or a custom one, optionally modulated by a cyclic phase schedule (the
paper's Figures 12-14 new-order / payment waves).  Everything here is
a frozen dataclass so specs hash, pickle across process pools, and
fingerprint stably into cache keys.

Validation happens at construction: every ``__post_init__`` raises
:class:`WorkloadSpecError` with a single actionable line naming the
offending key (``transactions[0].weight: must be positive, got -1``).
The loader (:mod:`repro.workload.loader`) builds these dataclasses
from YAML/JSON mappings and prefixes the source file name.

See ``docs/WORKLOADS.md`` for the field-by-field schema reference.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

#: Generator kinds a touch rule may use for block-index selection.
DISTRIBUTIONS = ("zipf", "uniform", "fixed", "append")

#: Hot-row locks a transaction may take (held to commit): the
#: warehouse row and/or the (block-shared) district row.
LOCK_KINDS = ("warehouse", "district")

#: Default Zipf skew of a ``zipf`` touch; other kinds must leave it here.
DEFAULT_SKEW = 0.5

#: Default redo volume per transaction (the paper's ~6 KB mean).
DEFAULT_REDO_BYTES = 6 * 1024.0


class WorkloadSpecError(ValueError):
    """A workload spec failed validation; message names the bad key."""


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise WorkloadSpecError(f"{key}: {message}")


@dataclass(frozen=True)
class SegmentSpec:
    """One table segment of a custom layout (omit for the ODB schema).

    Size it with exactly one of ``units`` (block units, exact) or
    ``bytes`` (converted at run time through the configuration's
    ``unit_bytes`` resolution, like the ODB schema's own sizing).
    ``bytes`` is per warehouse for per-warehouse segments and total
    for global ones.
    """

    name: str
    units: Optional[int] = None
    bytes: Optional[float] = None
    per_warehouse: bool = True

    def __post_init__(self) -> None:
        key = f"segments[{self.name!r}]"
        _require(bool(self.name), "segments[].name",
                 "segment name must be a non-empty string")
        _require((self.units is None) != (self.bytes is None), key,
                 "size with exactly one of 'units' or 'bytes'")
        if self.units is not None:
            _require(self.units > 0, f"{key}.units",
                     f"must be a positive unit count, got {self.units}")
        if self.bytes is not None:
            _require(self.bytes > 0, f"{key}.bytes",
                     f"must be a positive byte size, got {self.bytes}")

    def resolved_units(self, unit_bytes: int) -> int:
        """Unit count at a given block-unit resolution (>= 1)."""
        if self.units is not None:
            return self.units
        return max(1, int(self.bytes) // unit_bytes)


@dataclass(frozen=True)
class TouchRule:
    """Block touches one transaction makes against one segment.

    The ``distribution`` generator picks the block index on every
    touch: ``zipf`` (popularity skewed by ``skew``), ``uniform``
    (every unit equally likely), ``fixed`` (always unit ``index`` —
    a hot counter row), or ``append`` (a small rolling window at the
    segment tail, the orders/history append pattern).
    """

    segment: str
    count: int
    write_prob: float = 0.0
    distribution: str = "zipf"
    skew: float = DEFAULT_SKEW
    index: int = 0

    def __post_init__(self) -> None:
        key = f"touches[{self.segment!r}]"
        _require(bool(self.segment), "touches[].segment",
                 "touch must name a segment")
        _require(self.count > 0, f"{key}.count",
                 f"must be a positive touch count, got {self.count}")
        _require(0.0 <= self.write_prob <= 1.0, f"{key}.write_prob",
                 f"must be in [0, 1], got {self.write_prob}")
        _require(self.distribution in DISTRIBUTIONS, f"{key}.distribution",
                 f"must be one of {'/'.join(DISTRIBUTIONS)}, "
                 f"got {self.distribution!r}")
        _require(self.skew >= 0.0, f"{key}.skew",
                 f"must be >= 0, got {self.skew}")
        if self.distribution != "zipf":
            _require(self.skew == DEFAULT_SKEW, f"{key}.skew",
                     f"only meaningful with distribution 'zipf' "
                     f"(got distribution {self.distribution!r})")
        _require(self.index >= 0, f"{key}.index",
                 f"must be >= 0, got {self.index}")
        if self.distribution != "fixed":
            _require(self.index == 0, f"{key}.index",
                     f"only meaningful with distribution 'fixed' "
                     f"(got distribution {self.distribution!r})")


@dataclass(frozen=True)
class TransactionSpec:
    """One weighted transaction type of the workload."""

    name: str
    weight: float
    user_instructions: float
    touches: tuple[TouchRule, ...]
    locks: tuple[str, ...] = ()
    redo_bytes: float = DEFAULT_REDO_BYTES
    districts_touched: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "touches", tuple(self.touches))
        object.__setattr__(self, "locks", tuple(self.locks))
        key = f"transactions[{self.name!r}]"
        _require(bool(self.name), "transactions[].name",
                 "transaction must have a non-empty name")
        _require(self.weight > 0, f"{key}.weight",
                 f"must be positive, got {self.weight}")
        _require(self.user_instructions > 0, f"{key}.user_instructions",
                 f"must be positive, got {self.user_instructions}")
        _require(len(self.touches) > 0, f"{key}.touches",
                 "must list at least one touch rule")
        for lock in self.locks:
            _require(lock in LOCK_KINDS, f"{key}.locks",
                     f"must name locks from {'/'.join(LOCK_KINDS)}, "
                     f"got {lock!r}")
        _require(len(set(self.locks)) == len(self.locks), f"{key}.locks",
                 f"duplicate lock kinds in {list(self.locks)}")
        _require(self.redo_bytes >= 0, f"{key}.redo_bytes",
                 f"must be >= 0, got {self.redo_bytes}")
        _require(self.districts_touched >= 1, f"{key}.districts_touched",
                 f"must be >= 1, got {self.districts_touched}")


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a cyclic schedule: weight overrides for a while.

    ``weights`` replaces the base weight of the named transactions for
    ``duration_s`` simulated seconds; unnamed transactions keep their
    base weight.  Phases repeat in order for the whole run.
    """

    name: str
    duration_s: float
    weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights",
            tuple((str(n), w) for n, w in (
                self.weights.items() if isinstance(self.weights, dict)
                else self.weights)))
        key = f"phases[{self.name!r}]"
        _require(bool(self.name), "phases[].name",
                 "phase must have a non-empty name")
        _require(self.duration_s > 0, f"{key}.duration_s",
                 f"must be positive simulated seconds, got {self.duration_s}")
        for txn, weight in self.weights:
            _require(weight > 0, f"{key}.weights[{txn!r}]",
                     f"must be positive, got {weight}")

    @property
    def weight_map(self) -> dict[str, float]:
        """The overrides as a plain ``{transaction: weight}`` dict."""
        return dict(self.weights)


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete declarative workload: the unit ``--workload`` loads.

    ``segments=None`` means the default ODB layout
    (:func:`repro.odb.schema.odb_segments`); ``phases=None`` means a
    stationary mix; ``remote_touch_prob=None`` keeps the system's
    locality default (:data:`repro.odb.system.REMOTE_TOUCH_PROB`, 0.10).
    """

    name: str
    transactions: tuple[TransactionSpec, ...]
    description: str = ""
    segments: Optional[tuple[SegmentSpec, ...]] = None
    phases: Optional[tuple[PhaseSpec, ...]] = None
    remote_touch_prob: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))
        if self.segments is not None:
            object.__setattr__(self, "segments", tuple(self.segments))
        if self.phases is not None:
            object.__setattr__(self, "phases", tuple(self.phases))
        _require(bool(self.name), "name",
                 "workload must have a non-empty name")
        _require(len(self.transactions) > 0, "transactions",
                 "must define at least one transaction")
        names = [t.name for t in self.transactions]
        _require(len(set(names)) == len(names), "transactions",
                 f"duplicate transaction names in {names}")
        if self.remote_touch_prob is not None:
            _require(0.0 <= self.remote_touch_prob <= 1.0,
                     "remote_touch_prob",
                     f"must be in [0, 1], got {self.remote_touch_prob}")
        if self.segments is not None:
            _require(len(self.segments) > 0, "segments",
                     "must list at least one segment when present "
                     "(omit the key for the default ODB layout)")
            seg_names = [s.name for s in self.segments]
            _require(len(set(seg_names)) == len(seg_names), "segments",
                     f"duplicate segment names in {seg_names}")
        if self.phases is not None:
            _require(len(self.phases) > 0, "phases",
                     "must list at least one phase when present "
                     "(omit the key for a stationary mix)")
            phase_names = [p.name for p in self.phases]
            _require(len(set(phase_names)) == len(phase_names), "phases",
                     f"duplicate phase names in {phase_names}")
        self._check_references()

    def _check_references(self) -> None:
        """Cross-references: touches hit known segments, phases hit
        known transactions."""
        known_segments = self.segment_names()
        for txn in self.transactions:
            for touch in txn.touches:
                _require(
                    touch.segment in known_segments,
                    f"transactions[{txn.name!r}].touches[{touch.segment!r}]"
                    ".segment",
                    f"unknown segment (known: "
                    f"{', '.join(sorted(known_segments))})")
        txn_names = {t.name for t in self.transactions}
        for phase in self.phases or ():
            for name, _weight in phase.weights:
                _require(
                    name in txn_names,
                    f"phases[{phase.name!r}].weights[{name!r}]",
                    f"unknown transaction (known: "
                    f"{', '.join(sorted(txn_names))})")

    def segment_names(self) -> frozenset[str]:
        """Segment names touches may reference (custom or ODB default)."""
        if self.segments is not None:
            return frozenset(s.name for s in self.segments)
        from repro.odb.schema import odb_segments

        return frozenset(s.name for s in odb_segments())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (canonical: defaults included), JSON-ready."""
        return {
            "name": self.name,
            "description": self.description,
            "remote_touch_prob": self.remote_touch_prob,
            "segments": (None if self.segments is None else [
                {"name": s.name, "units": s.units, "bytes": s.bytes,
                 "per_warehouse": s.per_warehouse}
                for s in self.segments]),
            "transactions": [
                {"name": t.name, "weight": t.weight,
                 "user_instructions": t.user_instructions,
                 "locks": list(t.locks), "redo_bytes": t.redo_bytes,
                 "districts_touched": t.districts_touched,
                 "touches": [
                     {"segment": r.segment, "count": r.count,
                      "write_prob": r.write_prob,
                      "distribution": r.distribution,
                      "skew": r.skew, "index": r.index}
                     for r in t.touches]}
                for t in self.transactions],
            "phases": (None if self.phases is None else [
                {"name": p.name, "duration_s": p.duration_s,
                 "weights": dict(p.weights)}
                for p in self.phases]),
        }

    def fingerprint(self) -> str:
        """Short stable content hash (the cache-key part).

        Canonical over :meth:`to_dict`, so two spellings of the same
        workload (YAML vs JSON, keys reordered, defaults written out)
        fingerprint identically.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.blake2b(canonical.encode(),
                               digest_size=6).hexdigest()

