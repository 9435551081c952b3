"""Compiling a spec: the default workload, the touch mapping, the mix
weights and the block space."""

import pytest

from repro.odb import OdbConfig, OdbSystem
from repro.odb.mix import PhasedTransactionMix, TransactionMix
from repro.odb.schema import odb_segments
from repro.odb.transactions import _SegmentSampler, touch_draw
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
from repro.workload.standard import ODB_STANDARD


def _spec(**overrides):
    kwargs = {
        "name": "w",
        "transactions": (TransactionSpec(
            "t", 1.0, 1000.0, (TouchRule("stock", 1),)),),
    }
    kwargs.update(overrides)
    return WorkloadSpec(**kwargs)


class TestStandardPin:
    """odb-standard is what a run that names no workload executes."""

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
        assert system.mix.transactions is ODB_STANDARD.transactions


class TestGeneratorMapping:
    """:func:`touch_draw`: ``(window, skew, first)`` over a segment of
    1,000 units."""

    def test_zipf_passes_skew(self):
        assert touch_draw(TouchRule("stock", 2, skew=0.9), 1000) \
            == (1000, 0.9, 0)

    def test_uniform_is_zero_skew(self):
        assert touch_draw(TouchRule("stock", 2, distribution="uniform"),
                          1000) == (1000, 0.0, 0)

    def test_append_sets_append_hot(self):
        """The rolling append window: 2% of the segment at skew 1.2, and
        at least 4 units."""
        rule = TouchRule("orders", 1, distribution="append")
        assert touch_draw(rule, 1000) == (20, 1.2, 0)
        assert touch_draw(rule, 2) == (4, 1.2, 0)

    def test_fixed_sets_fixed_index(self):
        rule = TouchRule("stock", 1, distribution="fixed", index=3)
        assert touch_draw(rule, 1000) == (1, 0.0, 3)
        assert touch_draw(rule, 2) == (1, 0.0, 1)

    def test_locks_take_the_lock_order(self):
        """The warehouse row before the district row, whatever order
        the spec lists them in."""
        for locks in (("warehouse", "district"), ("district", "warehouse")):
            spec = _spec(transactions=(TransactionSpec(
                "t", 1.0, 1000.0, (TouchRule("stock", 1),), locks=locks),))
            compiled = compile_workload(spec)
            sampler = _SegmentSampler(
                compiled.build_block_space(2, 65536), 2, 0.1)
            [kind] = sampler.plans(compiled.build_mix()).types
            assert kind.locks == ("wh", "dist")


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
        shares = dict(zip(("a", "b"), compiled.weights))
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
    def test_default_layout_is_the_odb_space(self):
        space = compile_workload(_spec()).build_block_space(10, 8192)
        assert space.warehouses == 10
        for segment in odb_segments(8192):
            assert space.segment(segment.name) == segment

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
