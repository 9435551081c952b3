"""Tests for the ODB transaction types and their planning.

Planning runs in the walk kernel; its Python formulation,
``tests/odb/reference_prewarm.py``'s ``plan_transaction`` and ``pick``,
is the oracle ``tests/hw/test_compiled_sampling.py`` holds it to, and
the planning properties below are checked on that oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.blocks import BlockSpace
from repro.odb.mix import TransactionMix
from repro.odb.schema import odb_segments
from repro.odb.transactions import _SegmentSampler
from repro.sim.randomness import RandomStreams
from repro.workload import TouchRule, TransactionSpec, compiled_workload

from tests.db.reference_blocks import owner_of, total_units
from tests.odb.reference_prewarm import pick, plan_transaction


#: The default workload's mix of the five ODB transaction types.
MIX = compiled_workload(None).build_mix()
PROFILES = MIX.transactions
BY_NAME = {transaction.name: transaction for transaction in PROFILES}


def sampler_for(warehouses=10):
    space = BlockSpace(warehouses, odb_segments(), 64 * 1024)
    return _SegmentSampler(space, warehouses, 0.10), space


def _mix_mean(field: str) -> float:
    """Mix-weighted mean of one profile field over the standard mix."""
    total = sum(p.weight for p in PROFILES)
    return sum(p.weight * getattr(p, field) for p in PROFILES) / total


class TestProfiles:
    def test_five_transaction_types(self):
        names = {p.name for p in PROFILES}
        assert names == {"new_order", "payment", "order_status", "delivery",
                         "stock_level"}

    def test_mix_redo_close_to_paper_6kb(self):
        assert _mix_mean("redo_bytes") == pytest.approx(6 * 1024, rel=0.08)

    def test_mix_user_instructions_near_calibration_target(self):
        assert 1.0e6 < _mix_mean("user_instructions") < 1.4e6

    def test_new_order_and_payment_dominate(self):
        weights = {p.name: p.weight for p in PROFILES}
        assert weights["new_order"] + weights["payment"] > 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            TouchRule("stock", 0)
        with pytest.raises(ValueError):
            TouchRule("stock", 1, write_prob=1.5)
        with pytest.raises(ValueError):
            TransactionSpec("x", weight=0, user_instructions=1,
                            touches=(TouchRule("stock", 1),))
        with pytest.raises(ValueError):
            TransactionSpec("x", weight=1, user_instructions=1, touches=())


class TestPlanning:
    def test_plan_touches_match_profile(self):
        sampler, _space = sampler_for()
        rng = RandomStreams(1).stream("t")
        profile = PROFILES[0]  # new_order
        plan = plan_transaction(rng, profile, sampler, warehouses=10)
        expected = sum(spec.count for spec in profile.touches)
        assert len(plan.touches) == expected

    def test_block_ids_valid(self):
        sampler, space = sampler_for()
        rng = RandomStreams(2).stream("t")
        for profile in PROFILES:
            plan = plan_transaction(rng, profile, sampler, warehouses=10)
            for block, _write in plan.touches:
                assert 0 <= block < total_units(space)

    def test_new_order_locks_district_not_warehouse(self):
        sampler, _space = sampler_for()
        rng = RandomStreams(3).stream("t")
        plan = plan_transaction(rng, BY_NAME["new_order"], sampler, 10)
        kinds = {key[0] for key in plan.lock_keys}
        assert kinds == {"dist"}

    def test_payment_locks_warehouse_and_district(self):
        sampler, _space = sampler_for()
        rng = RandomStreams(3).stream("t")
        plan = plan_transaction(rng, BY_NAME["payment"], sampler, 10)
        kinds = [key[0] for key in plan.lock_keys]
        assert kinds == ["wh", "dist"]

    def test_read_only_transactions_take_no_locks(self):
        sampler, _space = sampler_for()
        rng = RandomStreams(3).stream("t")
        for name in ("order_status", "stock_level"):
            plan = plan_transaction(rng, BY_NAME[name], sampler, 10)
            assert plan.lock_keys == ()

    def test_remote_probability_zero_keeps_home_warehouse(self):
        sampler, space = sampler_for(warehouses=10)
        rng = RandomStreams(4).stream("t")
        profile = BY_NAME["new_order"]
        for _ in range(20):
            plan = plan_transaction(rng, profile, sampler, 10, remote_prob=0.0)
            for block, _write in plan.touches:
                segment, warehouse, _ = owner_of(space, block)
                assert warehouse in (-1, plan.warehouse)

    def test_writes_follow_write_probability(self):
        sampler, _space = sampler_for()
        rng = RandomStreams(5).stream("t")
        profile = BY_NAME["order_status"]  # all reads
        plan = plan_transaction(rng, profile, sampler, 10)
        assert not any(write for _, write in plan.touches)

    @given(st.integers(min_value=1, max_value=50), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_plan_generation_total(self, warehouses, seed):
        sampler, space = sampler_for(warehouses)
        rng = RandomStreams(seed).stream("t")
        profile = pick(MIX, rng)
        plan = plan_transaction(rng, profile, sampler, warehouses)
        assert 0 <= plan.warehouse < warehouses
        assert 0 <= plan.district < 10
        for block, _ in plan.touches:
            assert 0 <= block < total_units(space)


class TestMix:
    def test_shares_normalized(self):
        weights = [BY_NAME[p.name].weight for p in PROFILES]
        assert sum(weights) == pytest.approx(sum(MIX.weights))

    def test_pick_follows_weights(self):
        rng = RandomStreams(6).stream("t")
        picks = [pick(MIX, rng).name for _ in range(4000)]
        share = picks.count("new_order") / len(picks)
        assert share == pytest.approx(0.45, abs=0.04)

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            TransactionMix(transactions=(), weights=())
