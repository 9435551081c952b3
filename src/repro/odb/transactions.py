"""The five ODB transaction types.

Each profile lists the block-unit touches a transaction makes (per
segment, with a popularity skew), the hot-row locks it takes (held to
commit), its user-space instruction path length, and its redo volume.
The weighted mix averages to the paper's observations: ~6 KB of redo per
transaction and a user path length that does not depend on W.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from random import Random
from typing import Optional

from repro.db.blocks import BlockSpace
from repro.hw.cwalk import ffi, lib
from repro.hw.sampling import Mersenne, check_bound, zipf_array
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


@dataclass(frozen=True)
class TransactionPlan:
    """A concrete transaction instance: what to lock and touch."""

    profile: TransactionProfile
    warehouse: int
    district: int
    lock_keys: tuple[tuple, ...]
    #: (block_id, is_write) in access order.
    touches: tuple[tuple[int, bool], ...]


#: The standard ODB mix (TPC-C-like weights).  User path lengths are
#: per-type calibration constants whose mix-weighted mean lands near the
#: paper's ~1.2M user instructions per transaction (Figure 5).
STANDARD_PROFILES: tuple[TransactionProfile, ...] = (
    TransactionProfile(
        name="new_order",
        weight=0.45,
        user_instructions=1.45e6,
        touches=(
            TouchSpec("district", 1, write_prob=1.0),
            TouchSpec("item", 3, skew=0.8),
            TouchSpec("stock", 9, write_prob=0.9, skew=0.55),
            TouchSpec("customer", 1, skew=0.7),
            TouchSpec("orders", 2, write_prob=1.0, append_hot=True),
            TouchSpec("order_line", 2, write_prob=1.0, append_hot=True),
            TouchSpec("new_order", 1, write_prob=1.0, append_hot=True),
        ),
        locks_district_row=True,
        redo_bytes=7.5 * 1024,
    ),
    TransactionProfile(
        name="payment",
        weight=0.43,
        user_instructions=0.85e6,
        touches=(
            TouchSpec("warehouse", 1, write_prob=1.0),
            TouchSpec("district", 1, write_prob=1.0),
            TouchSpec("customer", 2, write_prob=0.5, skew=0.7),
            TouchSpec("history", 1, write_prob=1.0, append_hot=True),
        ),
        locks_warehouse_row=True,
        locks_district_row=True,
        redo_bytes=4.5 * 1024,
    ),
    TransactionProfile(
        name="order_status",
        weight=0.04,
        user_instructions=0.6e6,
        touches=(
            TouchSpec("customer", 2, skew=0.7),
            TouchSpec("orders", 2, append_hot=True),
            TouchSpec("order_line", 2, append_hot=True),
        ),
        redo_bytes=0.3 * 1024,
    ),
    TransactionProfile(
        name="delivery",
        weight=0.04,
        user_instructions=2.4e6,
        touches=(
            TouchSpec("new_order", 2, write_prob=1.0, append_hot=True),
            TouchSpec("orders", 6, write_prob=1.0, append_hot=True),
            TouchSpec("order_line", 4, write_prob=0.8, append_hot=True),
            TouchSpec("customer", 6, write_prob=1.0, skew=0.55),
        ),
        districts_touched=10,
        redo_bytes=9.0 * 1024,
    ),
    TransactionProfile(
        name="stock_level",
        weight=0.04,
        user_instructions=1.5e6,
        touches=(
            TouchSpec("district", 1),
            TouchSpec("order_line", 4, append_hot=True),
            TouchSpec("stock", 12, skew=0.55),
        ),
        redo_bytes=0.3 * 1024,
    ),
)


def mean_user_instructions(
        profiles: tuple[TransactionProfile, ...] = STANDARD_PROFILES) -> float:
    """Mix-weighted mean user path length."""
    total_weight = sum(p.weight for p in profiles)
    return sum(p.weight * p.user_instructions for p in profiles) / total_weight


def mean_redo_bytes(
        profiles: tuple[TransactionProfile, ...] = STANDARD_PROFILES) -> float:
    """Mix-weighted mean redo volume (the paper's ~6 KB)."""
    total_weight = sum(p.weight for p in profiles)
    return sum(p.weight * p.redo_bytes for p in profiles) / total_weight


def abort_weight(profile: TransactionProfile) -> float:
    """Relative transient-abort likelihood of a transaction type.

    Fault injection (:class:`repro.faults.TransientAborts`) scales its
    base probability by this: transactions with a larger write and lock
    footprint are the plausible deadlock victims and transient-error
    targets, while read-only types (order_status, stock_level) are
    nearly immune.  Normalized so the mix-weighted mean is 1.0 — a base
    probability of ``p`` still aborts ``p`` of all transactions.
    """
    raw = _raw_abort_weight(profile)
    total_weight = sum(p.weight for p in STANDARD_PROFILES)
    mean_raw = sum(p.weight * _raw_abort_weight(p)
                   for p in STANDARD_PROFILES) / total_weight
    return raw / mean_raw


def _raw_abort_weight(profile: TransactionProfile) -> float:
    writes = sum(spec.count * spec.write_prob for spec in profile.touches)
    locks = (int(profile.locks_warehouse_row)
             + int(profile.locks_district_row))
    return 0.1 + writes + 2.0 * locks


class _SegmentSampler:
    """Per-profile touch specs resolved against one block space.

    Everything derivable from a spec alone (the Zipf CDF, the segment's
    unit count, the block-id base and stride) is resolved once per
    transaction profile, so a planned touch costs one uniform draw, a
    bisect and one add chain.  The DES's :func:`plan_transaction` and
    the compiled prewarm sampler (:meth:`sample_plans`) read the same
    resolution.
    """

    def __init__(self, space: BlockSpace):
        self.space = space
        #: id(profile) -> (profile, resolved touches).  Keyed by identity:
        #: hashing a frozen profile hashes every TouchSpec in it.  The
        #: entry holds the profile, so its id cannot be reused.
        self._resolved: dict[int, tuple] = {}

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

    def sample_plans(self, rng: Random, mix, warehouses: int,
                     remote_prob: float, plans: int):
        """The touches of ``plans`` transactions drawn from ``mix`` in
        the walk kernel, each packed as ``(block_id << 1) | write``.

        Returns an iterator of ``uint64_t[]`` slices, in access order,
        each valid until the next is taken.  Iterated to the end, it
        draws exactly what ``plans`` calls of ``plan_transaction(rng,
        mix.pick(rng), self, warehouses, remote_prob)`` would and
        leaves ``rng`` where they would.  ``mix`` is a stationary
        :class:`~repro.odb.mix.TransactionMix`.
        """
        check_bound("warehouses", warehouses)
        first = [0]
        touches = []
        for profile in mix.profiles:
            for (cdf, modulus, stride, offset, count, write_prob,
                 array) in self.resolve(profile):
                touches.append({
                    "cdf": array, "cdf_len": len(cdf), "count": count,
                    "modulus": modulus, "stride": stride, "offset": offset,
                    "write_prob": write_prob})
            first.append(len(touches))
        longest = max(sum(spec.count for spec in profile.touches)
                      for profile in mix.profiles)
        tables = (ffi.new("double[]", mix.cdf), len(mix.profiles),
                  ffi.new("uint32_t[]", first), ffi.new("touch_t[]", touches),
                  warehouses, remote_prob)
        return _fills(rng, tables, plans, max(1, _FILL_TOUCHES // longest),
                      longest)


#: Touches one kernel call of ``_SegmentSampler.sample_plans`` fills at
#: most: a 64 KiB buffer, reused.  One buffer for all 4 000 prewarm
#: plans would be about 600 KiB, and freeing a block that large raises
#: glibc's mmap threshold; the DES's later allocations then fragment
#: the heap, which cost about 3 MB of peak RSS per process.
_FILL_TOUCHES = 8192


def _fills(rng: Random, tables: tuple, plans: int, per_fill: int,
           longest: int):
    """Yield ``plans`` transactions' touches, ``per_fill`` plans per
    kernel call, drawing from ``rng``'s stream (one handoff)."""
    out = ffi.new("uint64_t[]", per_fill * longest)
    with Mersenne().borrowed(rng) as mt:
        while plans > 0:
            count = lib.sample_plans(mt.c, *tables, min(plans, per_fill), out)
            plans -= per_fill
            yield out[0:count]


def plan_transaction(rng: Random, profile: TransactionProfile,
                     sampler: _SegmentSampler, warehouses: int,
                     remote_prob: float = 0.10) -> TransactionPlan:
    """Instantiate a transaction: pick warehouse, district, blocks, locks.

    ``remote_prob`` is the chance any given touch goes to a remote
    warehouse (TPC-C's remote order lines / customer payments).
    """
    # The randrange draws are inlined as CPython's
    # Random._randbelow_with_getrandbits loop (k = n.bit_length(),
    # redraw while >= n): same getrandbits sequence, so the stream stays
    # pinned, minus two interpreter frames per draw.
    getrandbits = rng.getrandbits
    wh_bits = warehouses.bit_length()
    warehouse = getrandbits(wh_bits)
    while warehouse >= warehouses:
        warehouse = getrandbits(wh_bits)
    district = getrandbits(4)
    while district >= 10:
        district = getrandbits(4)
    lock_keys: list[tuple] = []
    if profile.locks_warehouse_row:
        lock_keys.append(("wh", warehouse))
    if profile.locks_district_row:
        # Block-granular: all ten district rows share one block unit, so
        # updates contend per warehouse (Oracle buffer-level contention),
        # which is what makes tiny databases switch-heavy.
        lock_keys.append(("dist", warehouse))
    # Hot loop: the touch specs come resolved once per profile (one
    # uniform draw, a bisect, an add chain per touch).
    touches: list[tuple[int, bool]] = []
    append = touches.append
    rand = rng.random
    multi = warehouses > 1
    for (cdf, modulus, stride, offset, count, write_prob,
         _) in sampler.resolve(profile):
        for _ in range(count):
            target = warehouse
            if multi and rand() < remote_prob:
                target = getrandbits(wh_bits)
                while target >= warehouses:
                    target = getrandbits(wh_bits)
            index = bisect_left(cdf, rand())
            if modulus:
                index %= modulus
            append((offset + stride * target + index, rand() < write_prob))
    return TransactionPlan(
        profile=profile,
        warehouse=warehouse,
        district=district,
        lock_keys=tuple(lock_keys),
        touches=tuple(touches),
    )
