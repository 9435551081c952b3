"""Transaction profiles and their planning.

A :class:`TransactionProfile` lists the block-unit touches a
transaction type makes (per segment, with a popularity skew), the
hot-row locks it takes (held to commit), its user-space instruction
path length, and its redo volume.  Profiles are compiled from a
workload spec (:mod:`repro.workload`); the paper's five ODB types are
the ``odb-standard`` spec in :mod:`repro.workload.standard`.

A transaction is planned in the walk kernel (``sample_plans`` in
``repro/hw/_walk.c``), for the DES and the prewarm alike: the type
drawn from the mix, the home warehouse and the blocks it touches, from
a kernel stream (DESIGN.md §11, "Compiled sampling").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.db.blocks import BlockSpace
from repro.hw.cwalk import ffi, lib
from repro.hw.sampling import check_bound, zipf_array
from repro.sim.randomness import zipf_cdf


@dataclass(frozen=True)
class TouchSpec:
    """Block touches against one segment."""

    segment: str
    count: int
    write_prob: float = 0.0
    #: Zipf skew of unit popularity within the segment.
    skew: float = 0.5
    #: Append-mostly segments (orders, history): touches cluster in a
    #: small rolling window rather than spreading over the segment.
    append_hot: bool = False
    #: Always touch this one unit (a hot counter row).  Mutually
    #: exclusive with ``append_hot``; overrides the skew distribution.
    fixed_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("touch count must be positive")
        if not 0.0 <= self.write_prob <= 1.0:
            raise ValueError("write_prob must be in [0, 1]")
        if self.fixed_index is not None:
            if self.fixed_index < 0:
                raise ValueError("fixed_index must be >= 0")
            if self.append_hot:
                raise ValueError("fixed_index and append_hot are exclusive")


@dataclass(frozen=True)
class TransactionProfile:
    """One ODB transaction type."""

    name: str
    weight: float
    user_instructions: float
    touches: tuple[TouchSpec, ...]
    #: Hot-row locks taken at start, held to commit.
    locks_warehouse_row: bool = False
    locks_district_row: bool = False
    redo_bytes: float = 6 * 1024
    #: Districts involved (Delivery processes all ten).
    districts_touched: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0 or self.user_instructions <= 0:
            raise ValueError("weight and instructions must be positive")
        if not self.touches:
            raise ValueError("a transaction must touch at least one block")


def _raw_abort_weight(profile: TransactionProfile) -> float:
    """A transaction type's write and lock footprint, before
    :class:`_MixPlans` normalizes it into :attr:`PlanType.abort_weight`."""
    writes = sum(spec.count * spec.write_prob for spec in profile.touches)
    locks = (int(profile.locks_warehouse_row)
             + int(profile.locks_district_row))
    return 0.1 + writes + 2.0 * locks


class PlanType(NamedTuple):
    """What the DES needs of one transaction type, per plan drawn."""

    profile: TransactionProfile
    #: The hot-row lock kinds, in lock order; each key is
    #: ``(kind, warehouse)``.
    locks: tuple[str, ...]
    #: User instructions per burst: one burst per touch, one after.
    chunk: float
    #: Relative transient-abort likelihood.  Fault injection
    #: (:class:`repro.faults.TransientAborts`) scales its base
    #: probability by this: transactions with a larger write and lock
    #: footprint are the plausible deadlock victims and transient-error
    #: targets, while read-only types (order_status, stock_level) are
    #: nearly immune.  Normalized over the stationary mix the plan is
    #: drawn from (each phase of a phased mix on its own), so its
    #: mix-weighted mean is 1.0 and a base probability ``p`` is the
    #: mean abort chance of an attempt in any workload.
    abort_weight: float


class _MixPlans:
    """The kernel tables of one stationary mix (a ``plans_t``), with
    the buffers one plan is drawn into."""

    def __init__(self, sampler: "_SegmentSampler", mix):
        #: Held, so the id the sampler files this under stays unique.
        self.mix = mix
        first = [0]
        touches = []
        types = []
        #: Touches of the longest plan.
        self.longest = 0
        profiles = mix.profiles
        total_weight = sum(p.weight for p in profiles)
        mean_abort_weight = sum(p.weight * _raw_abort_weight(p)
                                for p in profiles) / total_weight
        for profile in profiles:
            for (cdf, modulus, stride, offset, count, write_prob,
                 array) in sampler.resolve(profile):
                touches.append({
                    "cdf": array, "cdf_len": len(cdf), "count": count,
                    "modulus": modulus, "stride": stride, "offset": offset,
                    "write_prob": write_prob})
            first.append(len(touches))
            length = sum(spec.count for spec in profile.touches)
            self.longest = max(self.longest, length)
            chunk = profile.user_instructions / (length + 1)
            if not chunk >= 0:
                raise ValueError("instructions must be >= 0")
            types.append(PlanType(
                profile,
                ("wh",) * profile.locks_warehouse_row
                # Block-granular: all ten district rows share one block
                # unit, so updates contend per warehouse (Oracle
                # buffer-level contention), which is what makes tiny
                # databases switch-heavy.
                + ("dist",) * profile.locks_district_row,
                chunk,
                _raw_abort_weight(profile) / mean_abort_weight))
        self.types = tuple(types)
        self._arrays = (ffi.new("double[]", mix.cdf),
                        ffi.new("uint32_t[]", first),
                        ffi.new("touch_t[]", touches))
        self.c = ffi.new("plans_t *", {
            "mix_cdf": self._arrays[0], "first": self._arrays[1],
            "touches": self._arrays[2], "types": len(types),
            "warehouses": sampler.warehouses,
            "remote_prob": sampler.remote_prob})
        self.out = ffi.new("uint64_t[]", self.longest)
        self.picks = ffi.new("uint32_t[2]")


class _SegmentSampler:
    """The one transaction planner: per-profile touch specs resolved
    against one block space, and per stationary mix the kernel tables
    that :meth:`draw` (the DES) and :meth:`sample_plans` (the prewarm)
    plan from.

    Everything derivable from a spec alone (the Zipf CDF, the segment's
    unit count, the block-id base and stride) is resolved once per
    transaction profile, so a planned touch costs one uniform draw, a
    bisect and one add chain.  ``remote_prob`` is the chance any given
    touch goes to a remote warehouse (TPC-C's remote order lines and
    customer payments).
    """

    def __init__(self, space: BlockSpace, warehouses: int,
                 remote_prob: float):
        check_bound("warehouses", warehouses)
        self.space = space
        self.warehouses = warehouses
        self.remote_prob = remote_prob
        #: id(profile) -> (profile, resolved touches).  Keyed by identity:
        #: hashing a frozen profile hashes every TouchSpec in it.  The
        #: entry holds the profile, so its id cannot be reused.
        self._resolved: dict[int, tuple] = {}
        #: id(mix) -> its tables, built on first use; each holds its mix.
        self._plans: dict[int, _MixPlans] = {}

    def resolve(self, profile: TransactionProfile) -> tuple[tuple, ...]:
        """Per touch spec of ``profile``: ``(cdf, modulus, stride,
        offset, count, write_prob, cdf_array)``.  The unit index is
        ``bisect_left(cdf, u)``, taken mod ``modulus`` when that is
        nonzero; the block is ``offset + stride * warehouse + index``.
        ``cdf_array`` is ``cdf`` as a ``double[]`` for the kernel."""
        entry = self._resolved.get(id(profile))
        if entry is None:
            entry = (profile, tuple(self._touch(spec)
                                    for spec in profile.touches))
            self._resolved[id(profile)] = entry
        return entry[1]

    def _touch(self, spec: TouchSpec) -> tuple:
        space = self.space
        segment = space.segment(spec.segment)
        modulus = 0
        if spec.fixed_index is not None:
            # A pinned unit: the CDF degenerates to one bucket so the
            # touch still consumes exactly one uniform draw (keeping the
            # RNG stream aligned with distribution changes) and the
            # chosen index folds into the offset.
            units, skew = 1, 0.0
            pinned = spec.fixed_index % segment.units
        elif spec.append_hot:
            # A rolling append window: the hottest ~2% of the segment
            # (at least 4 units), strongly skewed.
            units, skew = max(4, segment.units // 50), 1.2
            modulus = segment.units
            pinned = 0
        else:
            units, skew = segment.units, spec.skew
            pinned = 0
        if segment.per_warehouse:
            stride = space.units_per_warehouse
            offset = space.global_units + space._wh_offsets[spec.segment]
        else:
            stride = 0
            offset = space._global_offsets[spec.segment]
        return (zipf_cdf(units, skew), modulus, stride, offset + pinned,
                spec.count, spec.write_prob, zipf_array(units, skew))

    def plans(self, mix) -> _MixPlans:
        """The kernel tables of the stationary ``mix``, built once."""
        plans = self._plans.get(id(mix))
        if plans is None:
            plans = self._plans[id(mix)] = _MixPlans(self, mix)
        return plans

    def draw(self, mt, mix) -> tuple[PlanType, int, list[int]]:
        """One transaction of the stationary ``mix``, drawn from the
        kernel stream ``mt``: its :class:`PlanType`, its home warehouse
        and its touches in access order, each packed as
        ``(block_id << 1) | write``."""
        plans = self.plans(mix)
        picks = plans.picks
        count = _sample_plans(mt, plans.c, 1, plans.out, picks)
        return plans.types[picks[0]], picks[1], _unpack(plans.out, count)

    def sample_plans(self, mt, mix, plans: int):
        """The touches of ``plans`` transactions of the stationary
        ``mix``, drawn from the kernel stream ``mt`` as :meth:`draw`
        draws them, for the prewarm's replay.

        Returns an iterator of ``uint64_t[]`` slices of packed touches,
        in access order, each valid until the next is taken.
        """
        table = self.plans(mix)
        per_fill = max(1, _FILL_TOUCHES // table.longest)
        out = ffi.new("uint64_t[]", per_fill * table.longest)
        while plans > 0:
            count = _sample_plans(mt, table.c, min(plans, per_fill), out,
                                  ffi.NULL)
            plans -= per_fill
            yield out[0:count]


_sample_plans = lib.sample_plans
_unpack = ffi.unpack

#: Touches one kernel call of ``_SegmentSampler.sample_plans`` fills at
#: most: a 64 KiB buffer, reused.  One buffer for all 4 000 prewarm
#: plans would be about 600 KiB, and freeing a block that large raises
#: glibc's mmap threshold; the DES's later allocations then fragment
#: the heap, which cost about 3 MB of peak RSS per process.
_FILL_TOUCHES = 8192
