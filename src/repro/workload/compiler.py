"""Compile a :class:`WorkloadSpec` into what a run executes.

The spec's :class:`TransactionSpec` and :class:`TouchRule` are the
runtime types: the sampler, the mix and the popularity model read them
directly.  Compiling derives only the mix weights: the stationary
weights (the spec's own, or the duration-weighted blend of a phase
schedule) and each phase's, which :meth:`CompiledWorkload.build_mix`
realizes as a :class:`~repro.odb.mix.TransactionMix` or a
:class:`~repro.odb.mix.PhasedTransactionMix`; and it builds the block
space, custom or the ODB layout.  :func:`compiled_workload` is where a
run that names no workload gets the compiled ``odb-standard`` spec
(:mod:`repro.workload.standard`).

Compilation is pure and cached: specs are frozen/hashable, so
``compile_workload`` memoizes on the spec itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.db.blocks import BlockSpace, Segment
from repro.odb.mix import PhasedTransactionMix, TransactionMix
from repro.odb.schema import odb_segments
from repro.workload.spec import WorkloadSpec
from repro.workload.standard import ODB_STANDARD


def _blended_weights(
        phases: tuple[tuple[float, tuple[float, ...]], ...],
) -> tuple[float, ...]:
    """Duration-weighted time-average of the phase weights.

    Used as the compiled workload's *stationary* weights — what the
    analytic cache prewarm and popularity model see.  Each phase's
    weights are normalized before blending, so a phase with large
    absolute weights does not dominate beyond its duration share.
    """
    total_duration = sum(duration for duration, _ in phases)
    shares = [0.0] * len(phases[0][1])
    for duration, weights in phases:
        phase_total = sum(weights)
        for index, weight in enumerate(weights):
            shares[index] += (duration / total_duration) * weight / phase_total
    return tuple(shares)


@dataclass(frozen=True)
class CompiledWorkload:
    """A spec with its derived mix weights; what :class:`OdbConfig`
    carries.

    Frozen and hashable (so configs stay hashable) and picklable (so it
    crosses process pools, though sweeps prefer shipping the spec and
    compiling worker-side).
    """

    spec: WorkloadSpec
    #: Stationary weights, one per spec transaction: their own when
    #: there are no phases, the duration-weighted blend when there are.
    weights: tuple[float, ...]
    #: ``(duration_s, weights)`` per phase; empty for stationary mixes.
    phases: tuple[tuple[float, tuple[float, ...]], ...]

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
        transactions = self.spec.transactions
        if not self.phases:
            return TransactionMix(transactions, self.weights)
        if clock is None:
            raise ValueError(
                f"workload {self.name!r} has a phase schedule and needs a "
                f"simulation clock to build its mix")
        return PhasedTransactionMix(transactions, self.weights, self.phases,
                                    clock)

    def build_block_space(self, warehouses: int,
                          unit_bytes: int) -> BlockSpace:
        """The block space: the custom layout's, or the ODB schema's
        (:func:`~repro.odb.schema.odb_segments`) when the spec has
        none."""
        if self.spec.segments is None:
            segments = odb_segments(unit_bytes)
        else:
            segments = [
                Segment(seg.name, seg.resolved_units(unit_bytes),
                        per_warehouse=seg.per_warehouse)
                for seg in self.spec.segments
            ]
        return BlockSpace(warehouses, segments, unit_bytes)


@lru_cache(maxsize=128)
def compile_workload(spec: WorkloadSpec) -> CompiledWorkload:
    """Derive a validated spec's mix weights (memoized)."""
    weights = tuple(txn.weight for txn in spec.transactions)
    phases: tuple[tuple[float, tuple[float, ...]], ...] = ()
    if spec.phases:
        phases = tuple(
            (phase.duration_s, tuple(
                phase.weight_map.get(txn.name, txn.weight)
                for txn in spec.transactions))
            for phase in spec.phases)
        weights = _blended_weights(phases)
    return CompiledWorkload(spec=spec, weights=weights, phases=phases)


def compiled_workload(spec: Optional[WorkloadSpec]) -> CompiledWorkload:
    """What a run executes: ``spec`` compiled, or the compiled default
    ``odb-standard`` spec when ``spec`` is None."""
    return compile_workload(ODB_STANDARD if spec is None else spec)
