"""Compile a :class:`WorkloadSpec` into the ODB runtime types.

The compiled form is what every run executes: ``TransactionProfile``
tuples for the sampler and the popularity model, an optional custom
:class:`~repro.db.blocks.BlockSpace` layout, and an optional phase
schedule realized as a :class:`~repro.odb.mix.PhasedTransactionMix`.
:func:`compiled_workload` is where a run that names no workload gets
the compiled ``odb-standard`` spec (:mod:`repro.workload.standard`).

Compilation is pure and cached: specs are frozen/hashable, so
``compile_workload`` memoizes on the spec itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.db.blocks import BlockSpace, Segment
from repro.odb.mix import PhasedTransactionMix, TransactionMix
from repro.odb.transactions import TouchSpec, TransactionProfile
from repro.workload.spec import (
    TouchRule,
    TransactionSpec,
    WorkloadSpec,
    WorkloadSpecError,
)
from repro.workload.standard import ODB_STANDARD


def _compile_touch(rule: TouchRule) -> TouchSpec:
    """One touch rule -> the sampler's TouchSpec.

    The four generator kinds map onto TouchSpec's knobs: ``zipf`` keeps
    its skew, ``uniform`` is Zipf with skew 0 (every unit equally
    likely), ``append`` sets the rolling-window flag, and ``fixed``
    pins the unit index.  Non-zipf kinds leave ``skew`` at the TouchSpec
    default.
    """
    kwargs = {
        "segment": rule.segment,
        "count": rule.count,
        "write_prob": rule.write_prob,
    }
    if rule.distribution == "zipf":
        kwargs["skew"] = rule.skew
    elif rule.distribution == "uniform":
        kwargs["skew"] = 0.0
    elif rule.distribution == "append":
        kwargs["append_hot"] = True
    elif rule.distribution == "fixed":
        kwargs["fixed_index"] = rule.index
    else:  # pragma: no cover - spec validation rejects unknown kinds
        raise WorkloadSpecError(
            f"touches[{rule.segment!r}].distribution: "
            f"unsupported kind {rule.distribution!r}")
    return TouchSpec(**kwargs)


def _compile_transaction(spec: TransactionSpec) -> TransactionProfile:
    return TransactionProfile(
        name=spec.name,
        weight=spec.weight,
        user_instructions=spec.user_instructions,
        touches=tuple(_compile_touch(rule) for rule in spec.touches),
        locks_warehouse_row="warehouse" in spec.locks,
        locks_district_row="district" in spec.locks,
        redo_bytes=spec.redo_bytes,
        districts_touched=spec.districts_touched,
    )


def _blended_profiles(
        base: tuple[TransactionProfile, ...],
        phases: tuple[tuple[float, tuple[TransactionProfile, ...]], ...],
) -> tuple[TransactionProfile, ...]:
    """Duration-weighted time-average of the phase mixes.

    Used as the compiled workload's *stationary* profile view — what
    the analytic cache prewarm and popularity model see.  Each phase's
    weights are normalized before blending, so a phase with large
    absolute weights does not dominate beyond its duration share.
    """
    total_duration = sum(duration for duration, _ in phases)
    shares = {profile.name: 0.0 for profile in base}
    for duration, profiles in phases:
        phase_total = sum(p.weight for p in profiles)
        for profile in profiles:
            shares[profile.name] += (
                (duration / total_duration) * profile.weight / phase_total)
    return tuple(dataclasses.replace(profile, weight=shares[profile.name])
                 for profile in base)


@dataclass(frozen=True)
class CompiledWorkload:
    """A spec lowered to runtime form; what :class:`OdbConfig` carries.

    Frozen and hashable (so configs stay hashable) and picklable (so it
    crosses process pools, though sweeps prefer shipping the spec and
    compiling worker-side).
    """

    spec: WorkloadSpec
    #: Stationary profiles: the mix itself when there are no phases,
    #: the duration-weighted blend when there are.
    profiles: tuple[TransactionProfile, ...]
    #: ``(duration_s, profiles)`` per phase; empty for stationary mixes.
    phases: tuple[tuple[float, tuple[TransactionProfile, ...]], ...]
    remote_touch_prob: Optional[float]

    @property
    def name(self) -> str:
        """The source spec's name."""
        return self.spec.name

    def fingerprint(self) -> str:
        """The source spec's content fingerprint (cache-key component)."""
        return self.spec.fingerprint()

    @property
    def is_default(self) -> bool:
        """True for the default ``odb-standard`` spec, which shares the
        cache keys of runs that name no workload."""
        return self.spec == ODB_STANDARD

    def build_mix(self,
                  clock: Optional[Callable[[], float]] = None
                  ) -> TransactionMix:
        """The runtime mix; phase schedules need the engine ``clock``."""
        if not self.phases:
            return TransactionMix(self.profiles)
        if clock is None:
            raise ValueError(
                f"workload {self.name!r} has a phase schedule and needs a "
                f"simulation clock to build its mix")
        return PhasedTransactionMix(self.profiles, self.phases, clock)

    def build_block_space(self, warehouses: int,
                          unit_bytes: int) -> Optional[BlockSpace]:
        """The custom layout's block space, or ``None`` for the ODB
        default (the system then keeps its schema-built space)."""
        if self.spec.segments is None:
            return None
        segments = [
            Segment(seg.name, seg.resolved_units(unit_bytes),
                    per_warehouse=seg.per_warehouse)
            for seg in self.spec.segments
        ]
        return BlockSpace(warehouses, segments, unit_bytes)


@lru_cache(maxsize=128)
def compile_workload(spec: WorkloadSpec) -> CompiledWorkload:
    """Lower a validated spec to its runtime form (memoized)."""
    base = tuple(_compile_transaction(txn) for txn in spec.transactions)
    phases: tuple[tuple[float, tuple[TransactionProfile, ...]], ...] = ()
    profiles = base
    if spec.phases:
        phases = tuple(
            (phase.duration_s, tuple(
                dataclasses.replace(
                    profile, weight=phase.weight_map.get(profile.name,
                                                         profile.weight))
                for profile in base))
            for phase in spec.phases)
        profiles = _blended_profiles(base, phases)
    return CompiledWorkload(
        spec=spec,
        profiles=profiles,
        phases=phases,
        remote_touch_prob=spec.remote_touch_prob,
    )


def compiled_workload(spec: Optional[WorkloadSpec]) -> CompiledWorkload:
    """What a run executes: ``spec`` compiled, or the compiled default
    ``odb-standard`` spec when ``spec`` is None."""
    return compile_workload(ODB_STANDARD if spec is None else spec)
