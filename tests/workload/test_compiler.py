"""Spec → runtime lowering: the odb-standard pin and generator mapping."""

import pytest

from repro.odb import OdbConfig, OdbSystem
from repro.odb.mix import PhasedTransactionMix, TransactionMix
from repro.workload import (
    PhaseSpec,
    SegmentSpec,
    TouchRule,
    TransactionSpec,
    WorkloadSpec,
    compile_workload,
    compiled_workload,
    workload_by_name,
)

from tests.workload.standard_profiles import STANDARD_PROFILES


def _spec(**overrides):
    kwargs = {
        "name": "w",
        "transactions": (TransactionSpec(
            "t", 1.0, 1000.0, (TouchRule("stock", 1),)),),
    }
    kwargs.update(overrides)
    return WorkloadSpec(**kwargs)


class TestStandardPin:
    """odb-standard compiles to *exactly* the hand-written paper mix,
    and it is what a run that names no workload executes."""

    def test_profiles_value_equal_to_standard(self):
        compiled = compile_workload(workload_by_name("odb-standard"))
        assert compiled.profiles == STANDARD_PROFILES

    def test_odb_standard_is_standard(self):
        compiled = compile_workload(workload_by_name("odb-standard"))
        assert compiled.is_default
        assert compiled_workload(None) is compiled

    def test_every_other_scenario_is_not_standard(self):
        from repro.workload import available_workloads
        for name, spec in available_workloads().items():
            if name == "odb-standard":
                continue
            assert not compile_workload(spec).is_default, name

    def test_standard_mix_equals_default_mix(self):
        system = OdbSystem(OdbConfig(10, 4, 1))
        assert system.workload is compiled_workload(None)
        assert type(system.mix) is TransactionMix
        assert system.mix.profiles == STANDARD_PROFILES


class TestGeneratorMapping:
    def _touch_spec(self, rule):
        spec = _spec(transactions=(TransactionSpec(
            "t", 1.0, 1000.0, (rule,)),))
        return compile_workload(spec).profiles[0].touches[0]

    def test_zipf_passes_skew(self):
        touch = self._touch_spec(TouchRule("stock", 2, skew=0.9))
        assert touch.skew == 0.9 and not touch.append_hot
        assert touch.fixed_index is None

    def test_uniform_is_zero_skew(self):
        touch = self._touch_spec(
            TouchRule("stock", 2, distribution="uniform"))
        assert touch.skew == 0.0

    def test_append_sets_append_hot(self):
        touch = self._touch_spec(
            TouchRule("orders", 1, distribution="append"))
        assert touch.append_hot

    def test_fixed_sets_fixed_index(self):
        touch = self._touch_spec(
            TouchRule("stock", 1, distribution="fixed", index=3))
        assert touch.fixed_index == 3

    def test_locks_map_to_profile_booleans(self):
        spec = _spec(transactions=(TransactionSpec(
            "t", 1.0, 1000.0, (TouchRule("stock", 1),),
            locks=("warehouse", "district")),))
        profile = compile_workload(spec).profiles[0]
        assert profile.locks_warehouse_row and profile.locks_district_row


class TestPhasesAndBlend:
    def _phased(self):
        return _spec(
            transactions=(
                TransactionSpec("a", 0.5, 1000.0, (TouchRule("stock", 1),)),
                TransactionSpec("b", 0.5, 1000.0, (TouchRule("stock", 1),)),
            ),
            phases=(
                PhaseSpec("heavy-a", 3.0, weights={"a": 0.9, "b": 0.1}),
                PhaseSpec("heavy-b", 1.0, weights={"a": 0.1, "b": 0.9}),
            ))

    def test_blended_profiles_are_duration_weighted(self):
        compiled = compile_workload(self._phased())
        shares = {p.name: p.weight for p in compiled.profiles}
        # 0.75 of the cycle at 0.9 + 0.25 at 0.1, normalized.
        assert shares["a"] == pytest.approx(0.75 * 0.9 + 0.25 * 0.1)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_phased_mix_needs_clock(self):
        compiled = compile_workload(self._phased())
        with pytest.raises(ValueError, match="needs a.*clock"):
            compiled.build_mix()
        mix = compiled.build_mix(clock=lambda: 0.0)
        assert isinstance(mix, PhasedTransactionMix)

    def test_stationary_mix_ignores_clock(self):
        compiled = compile_workload(_spec())
        mix = compiled.build_mix()
        assert type(mix) is TransactionMix


class TestBlockSpace:
    def test_default_layout_returns_none(self):
        assert compile_workload(_spec()).build_block_space(10, 8192) is None

    def test_custom_segments_build_a_space(self):
        spec = _spec(
            transactions=(TransactionSpec(
                "t", 1.0, 1000.0, (TouchRule("store", 1),)),),
            segments=(SegmentSpec("store", bytes=4 * 8192.0),
                      SegmentSpec("log", units=2, per_warehouse=False)),
        )
        space = compile_workload(spec).build_block_space(3, 8192)
        assert space is not None
        assert space.segment("store").units == 4
        assert space.segment("store").per_warehouse
        assert not space.segment("log").per_warehouse


def test_compile_is_memoized():
    spec = workload_by_name("banking")
    assert compile_workload(spec) is compile_workload(spec)


def test_fingerprints_pinned():
    """Scenario fingerprints are part of cache keys and manifests; an
    edit to a shipped YAML must be deliberate enough to update these."""
    from repro.workload import available_workloads
    fingerprints = {name: spec.fingerprint()
                    for name, spec in available_workloads().items()}
    assert fingerprints == {
        "banking": "7b9c94b861ef",
        "key-value": "3be86abc1041",
        "odb-standard": "ff052819f089",
        "order-entry-burst": "55dba8035ac3",
        "social-feed": "23648394e7fd",
    }
