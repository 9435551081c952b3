"""Spec-model validation: every failure is one line naming the bad key."""

import pytest

from repro.workload import (
    PhaseSpec,
    SegmentSpec,
    TouchRule,
    TransactionSpec,
    WorkloadSpec,
    WorkloadSpecError,
)


def _touch(**overrides):
    kwargs = {"segment": "stock", "count": 1}
    kwargs.update(overrides)
    return TouchRule(**kwargs)


def _txn(**overrides):
    kwargs = {"name": "t", "weight": 1.0, "user_instructions": 1000.0,
              "touches": (_touch(),)}
    kwargs.update(overrides)
    return TransactionSpec(**kwargs)


def _error_for(callable_, *args, **kwargs) -> str:
    with pytest.raises(WorkloadSpecError) as excinfo:
        callable_(*args, **kwargs)
    message = str(excinfo.value)
    assert "\n" not in message, "spec errors must be single-line"
    return message


class TestTouchRule:
    def test_zero_count_names_key(self):
        message = _error_for(_touch, count=0)
        assert "count" in message and "got 0" in message

    def test_write_prob_range_names_key(self):
        message = _error_for(_touch, write_prob=1.5)
        assert "write_prob" in message and "[0, 1]" in message

    def test_unknown_distribution_lists_choices(self):
        message = _error_for(_touch, distribution="pareto")
        assert "distribution" in message
        assert "zipf/uniform/fixed/append" in message

    def test_skew_only_with_zipf(self):
        message = _error_for(_touch, distribution="uniform", skew=0.9)
        assert "skew" in message and "'zipf'" in message

    def test_index_only_with_fixed(self):
        message = _error_for(_touch, index=3)
        assert "index" in message and "'fixed'" in message

    def test_fixed_with_index_is_valid(self):
        rule = _touch(distribution="fixed", index=7)
        assert rule.index == 7


class TestTransactionSpec:
    def test_negative_weight_names_transaction(self):
        message = _error_for(_txn, name="refund", weight=-1.0)
        assert "transactions['refund'].weight" in message
        assert "got -1" in message

    def test_zero_weight_rejected(self):
        message = _error_for(_txn, weight=0.0)
        assert "weight" in message and "positive" in message

    def test_empty_touches_rejected(self):
        message = _error_for(_txn, touches=())
        assert "touches" in message and "at least one" in message

    def test_unknown_lock_lists_kinds(self):
        message = _error_for(_txn, locks=("table",))
        assert "locks" in message and "warehouse/district" in message

    def test_duplicate_locks_rejected(self):
        message = _error_for(_txn, locks=("district", "district"))
        assert "duplicate" in message

    def test_negative_redo_rejected(self):
        message = _error_for(_txn, redo_bytes=-1.0)
        assert "redo_bytes" in message

    def test_zero_redo_is_valid_read_only(self):
        assert _txn(redo_bytes=0.0).redo_bytes == 0.0


class TestSegmentSpec:
    def test_units_and_bytes_both_rejected(self):
        message = _error_for(SegmentSpec, "s", units=4, bytes=1024.0)
        assert "exactly one of 'units' or 'bytes'" in message

    def test_neither_size_rejected(self):
        message = _error_for(SegmentSpec, "s")
        assert "exactly one of 'units' or 'bytes'" in message

    def test_zero_units_rejected(self):
        message = _error_for(SegmentSpec, "s", units=0)
        assert "units" in message and "got 0" in message

    def test_bytes_resolve_to_at_least_one_unit(self):
        assert SegmentSpec("s", bytes=10.0).resolved_units(8192) == 1
        assert SegmentSpec("s", bytes=4 * 8192.0).resolved_units(8192) == 4


class TestPhaseSpec:
    def test_zero_duration_names_key(self):
        message = _error_for(PhaseSpec, "wave", duration_s=0.0)
        assert "phases['wave'].duration_s" in message

    def test_negative_override_weight_names_transaction(self):
        message = _error_for(PhaseSpec, "wave", duration_s=1.0,
                             weights={"new_order": -2.0})
        assert "weights['new_order']" in message and "got -2" in message

    def test_dict_weights_normalized_to_pairs(self):
        phase = PhaseSpec("wave", 1.0, weights={"a": 1.0, "b": 2.0})
        assert phase.weight_map == {"a": 1.0, "b": 2.0}


class TestWorkloadSpec:
    def test_empty_transactions_rejected(self):
        message = _error_for(WorkloadSpec, "w", ())
        assert "transactions" in message and "at least one" in message

    def test_duplicate_transaction_names_rejected(self):
        message = _error_for(WorkloadSpec, "w", (_txn(), _txn()))
        assert "duplicate transaction names" in message

    def test_empty_phases_list_rejected(self):
        message = _error_for(WorkloadSpec, "w", (_txn(),), phases=())
        assert "phases" in message
        assert "at least one phase when present" in message

    def test_empty_segments_list_rejected(self):
        message = _error_for(WorkloadSpec, "w", (_txn(),), segments=())
        assert "segments" in message and "when present" in message

    def test_touch_against_unknown_segment_lists_known(self):
        message = _error_for(
            WorkloadSpec, "w",
            (_txn(touches=(_touch(segment="ghost"),)),))
        assert "touches['ghost'].segment" in message
        assert "unknown segment" in message and "known:" in message

    def test_phase_override_for_unknown_transaction(self):
        message = _error_for(
            WorkloadSpec, "w", (_txn(name="real"),),
            phases=(PhaseSpec("p", 1.0, weights={"ghost": 1.0}),))
        assert "phases['p'].weights['ghost']" in message
        assert "unknown transaction" in message and "real" in message

    def test_remote_touch_prob_range(self):
        message = _error_for(WorkloadSpec, "w", (_txn(),),
                             remote_touch_prob=1.5)
        assert "remote_touch_prob" in message and "[0, 1]" in message

    def test_default_segments_are_the_odb_schema(self):
        spec = WorkloadSpec("w", (_txn(),))
        assert "stock" in spec.segment_names()
        assert "customer" in spec.segment_names()

    def test_fingerprint_stable_and_content_sensitive(self):
        spec = WorkloadSpec("w", (_txn(),))
        same = WorkloadSpec("w", (_txn(),))
        heavier = WorkloadSpec("w", (_txn(weight=2.0),))
        assert spec.fingerprint() == same.fingerprint()
        assert spec.fingerprint() != heavier.fingerprint()
        assert len(spec.fingerprint()) == 12

