"""Transaction planning.

A transaction type is a :class:`~repro.workload.spec.TransactionSpec`
of the running workload: the block-unit touches it makes (per segment,
each drawn as :func:`touch_draw` maps its :class:`TouchRule`), the
hot-row locks it takes (held to commit), its user-space instruction
path length, and its redo volume.  The paper's five ODB types are the
``odb-standard`` spec in :mod:`repro.workload.standard`.

A transaction is planned in the walk kernel (``sample_plans`` in
``repro/hw/_walk.c``), for the DES and the prewarm alike: the type
drawn from the mix, the home warehouse and the blocks it touches, from
a kernel stream (DESIGN.md §11, "Compiled sampling").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.db.blocks import BlockSpace
from repro.hw.cwalk import ffi, lib
from repro.hw.sampling import check_bound, zipf_array
from repro.sim.randomness import zipf_cdf

if TYPE_CHECKING:
    from repro.odb.mix import TransactionMix
    from repro.workload.spec import TouchRule, TransactionSpec


def touch_draw(rule: TouchRule, units: int) -> tuple[int, float, int]:
    """How one touch of ``rule`` picks a unit of a segment of ``units``
    units: ``(window, skew, first)``, for a Zipf(``skew``) rank below
    ``window`` and the unit ``(first + rank) % units``.

    ``zipf`` keeps its skew and ``uniform`` is skew 0, both over the
    whole segment.  ``append`` is a rolling append window: the hottest
    ~2% of the segment (at least 4 units), strongly skewed.  ``fixed``
    pins unit ``index``: a one-rank window, so the touch still consumes
    exactly one uniform draw (keeping the RNG stream aligned with
    distribution changes).  The sampler and the popularity model
    (:mod:`repro.odb.popularity`) both draw through this.
    """
    if rule.distribution == "fixed":
        return 1, 0.0, rule.index % units
    if rule.distribution == "append":
        return max(4, units // 50), 1.2, 0
    return units, (0.0 if rule.distribution == "uniform" else rule.skew), 0


def _raw_abort_weight(transaction: TransactionSpec) -> float:
    """A transaction type's write and lock footprint, before
    :class:`_MixPlans` normalizes it into :attr:`PlanType.abort_weight`."""
    writes = sum(rule.count * rule.write_prob
                 for rule in transaction.touches)
    return 0.1 + writes + 2.0 * len(transaction.locks)


class PlanType(NamedTuple):
    """What the DES needs of one transaction type, per plan drawn."""

    #: The workload's transaction type.
    profile: TransactionSpec
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

    def __init__(self, sampler: "_SegmentSampler", mix: TransactionMix):
        #: Held, so the id the sampler files this under stays unique.
        self.mix = mix
        first = [0]
        touches = []
        types = []
        #: Touches of the longest plan.
        self.longest = 0
        transactions = mix.transactions
        total_weight = sum(mix.weights)
        mean_abort_weight = sum(
            weight * _raw_abort_weight(transaction)
            for transaction, weight in zip(transactions, mix.weights)
        ) / total_weight
        for transaction in transactions:
            for (cdf, modulus, stride, offset, count, write_prob,
                 array) in sampler.resolve(transaction):
                touches.append({
                    "cdf": array, "cdf_len": len(cdf), "count": count,
                    "modulus": modulus, "stride": stride, "offset": offset,
                    "write_prob": write_prob})
            first.append(len(touches))
            length = sum(rule.count for rule in transaction.touches)
            self.longest = max(self.longest, length)
            chunk = transaction.user_instructions / (length + 1)
            if not chunk >= 0:
                raise ValueError("instructions must be >= 0")
            types.append(PlanType(
                transaction,
                # In lock order, whatever order the spec lists them in.
                ("wh",) * ("warehouse" in transaction.locks)
                # Block-granular: all ten district rows share one block
                # unit, so updates contend per warehouse (Oracle
                # buffer-level contention), which is what makes tiny
                # databases switch-heavy.
                + ("dist",) * ("district" in transaction.locks),
                chunk,
                _raw_abort_weight(transaction) / mean_abort_weight))
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
    """The one transaction planner: per transaction type its touch rules
    resolved against one block space, and per stationary mix the kernel tables
    that :meth:`draw` (the DES) and :meth:`sample_plans` (the prewarm)
    plan from.

    Everything derivable from a spec alone (the Zipf CDF, the segment's
    unit count, the block-id base and stride) is resolved once per
    transaction type, so a planned touch costs one uniform draw, a
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
        #: id(transaction) -> (transaction, resolved touches).  Keyed by
        #: identity: hashing a frozen spec hashes every TouchRule in it.
        #: The entry holds the spec, so its id cannot be reused.
        self._resolved: dict[int, tuple] = {}
        #: id(mix) -> its tables, built on first use; each holds its mix.
        self._plans: dict[int, _MixPlans] = {}

    def resolve(self, transaction: TransactionSpec) -> tuple[tuple, ...]:
        """Per touch rule of ``transaction``: ``(cdf, modulus, stride,
        offset, count, write_prob, cdf_array)``.  The unit index is
        ``bisect_left(cdf, u)``, taken mod ``modulus`` when that is
        nonzero; the block is ``offset + stride * warehouse + index``.
        ``cdf_array`` is ``cdf`` as a ``double[]`` for the kernel."""
        entry = self._resolved.get(id(transaction))
        if entry is None:
            entry = (transaction, tuple(self._touch(rule)
                                        for rule in transaction.touches))
            self._resolved[id(transaction)] = entry
        return entry[1]

    def _touch(self, rule: TouchRule) -> tuple:
        space = self.space
        segment = space.segment(rule.segment)
        # A pinned unit's index folds into the offset; only a window
        # wider than its segment (an append window over fewer than 4
        # units) needs the modulus.
        window, skew, first = touch_draw(rule, segment.units)
        modulus = segment.units if window > segment.units else 0
        if segment.per_warehouse:
            stride = space.units_per_warehouse
            offset = space.global_units + space._wh_offsets[rule.segment]
        else:
            stride = 0
            offset = space._global_offsets[rule.segment]
        return (zipf_cdf(window, skew), modulus, stride, offset + first,
                rule.count, rule.write_prob, zipf_array(window, skew))

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
