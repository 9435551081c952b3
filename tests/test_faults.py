"""Tests for the declarative fault-injection layer (repro.faults)."""

import random

import pytest

from repro.faults import (
    DiskDegradation,
    DiskFaultModel,
    FaultPlan,
    LockStorm,
    LogStall,
    RetryPolicy,
    TransientAborts,
    stall_wait_s,
)


class TestValidation:
    def test_latency_factor_must_degrade(self):
        with pytest.raises(ValueError):
            DiskDegradation(latency_factor=0.5)

    def test_outage_window_ordering(self):
        with pytest.raises(ValueError):
            DiskDegradation(outages=((2.0, 1.0),))
        with pytest.raises(ValueError):
            LogStall(windows=((-1.0, 1.0),))

    def test_storm_bounds(self):
        with pytest.raises(ValueError):
            LockStorm(duration_s=0.0)
        with pytest.raises(ValueError):
            LockStorm(warehouses_per_burst=0)

    def test_abort_probability_range(self):
        with pytest.raises(ValueError):
            TransientAborts(probability=1.5)

    def test_retry_policy_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.01)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestRetryBackoff:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=2.0,
                             max_backoff_s=0.05)
        assert policy.backoff_s(1) == pytest.approx(0.01)
        assert policy.backoff_s(2) == pytest.approx(0.02)
        assert policy.backoff_s(3) == pytest.approx(0.04)
        assert policy.backoff_s(4) == pytest.approx(0.05)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.05)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


class TestSerialization:
    def make_plan(self):
        return FaultPlan(
            seed=9,
            disks=(DiskDegradation(disk=-1, latency_factor=2.5),
                   DiskDegradation(disk=3, outages=((1.0, 2.0), (5.0, 6.0)))),
            log_stalls=(LogStall(windows=((0.5, 0.75),)),),
            lock_storms=(LockStorm(start_s=0.1, duration_s=2.0,
                                   warehouses_per_burst=2),),
            aborts=TransientAborts(probability=0.02),
            retry=RetryPolicy(base_backoff_s=0.002, max_attempts=5),
        )

    def test_json_roundtrip(self):
        plan = self.make_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        plan = self.make_plan()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(path) == plan

    def test_empty_plan_roundtrip(self):
        plan = FaultPlan()
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert not (plan.disks or plan.log_stalls or plan.lock_storms
                    or plan.aborts)

    def test_fingerprint_stable_and_sensitive(self):
        plan = self.make_plan()
        assert plan.fingerprint() == self.make_plan().fingerprint()
        other = FaultPlan(seed=10)
        assert plan.fingerprint() != other.fingerprint()


class TestDiskFaultModel:
    def test_array_wide_and_per_disk_compose(self):
        plan = FaultPlan(disks=(
            DiskDegradation(disk=-1, latency_factor=2.0),
            DiskDegradation(disk=1, latency_factor=3.0),
        ))
        model = DiskFaultModel(plan, data_disk_count=3)
        assert model.latency_factor(0) == pytest.approx(2.0)
        assert model.latency_factor(1) == pytest.approx(6.0)
        assert model.latency_factor(2) == pytest.approx(2.0)

    def test_outage_wait(self):
        plan = FaultPlan(disks=(
            DiskDegradation(disk=0, outages=((1.0, 3.0),)),))
        model = DiskFaultModel(plan, data_disk_count=2)
        assert model.outage_wait_s(0, 0.5) == 0.0
        assert model.outage_wait_s(0, 1.0) == pytest.approx(2.0)
        assert model.outage_wait_s(0, 2.5) == pytest.approx(0.5)
        assert model.outage_wait_s(0, 3.0) == 0.0
        assert model.outage_wait_s(1, 2.0) == 0.0

    def test_out_of_range_disk_rejected(self):
        plan = FaultPlan(disks=(DiskDegradation(disk=9),))
        with pytest.raises(ValueError):
            DiskFaultModel(plan, data_disk_count=4)


class TestStallWait:
    def test_overlapping_windows_take_latest_end(self):
        stalls = (LogStall(windows=((0.0, 2.0),)),
                  LogStall(windows=((1.0, 3.0),)))
        assert stall_wait_s(stalls, 1.5) == pytest.approx(1.5)
        assert stall_wait_s(stalls, 3.0) == 0.0
        assert stall_wait_s((), 1.0) == 0.0


class TestAbortWeight:
    def test_mix_weighted_mean_is_one(self):
        from repro.odb.transactions import STANDARD_PROFILES, abort_weight

        total = sum(p.weight for p in STANDARD_PROFILES)
        mean = sum(p.weight * abort_weight(p)
                   for p in STANDARD_PROFILES) / total
        assert mean == pytest.approx(1.0)

    def test_write_heavy_profiles_abort_more(self):
        from repro.odb.transactions import STANDARD_PROFILES, abort_weight

        by_name = {p.name: p for p in STANDARD_PROFILES}
        assert abort_weight(by_name["new_order"]) > \
            abort_weight(by_name["order_status"])
        assert abort_weight(by_name["payment"]) > \
            abort_weight(by_name["stock_level"])


class TestLockStormProcess:
    def test_storm_contends_with_a_client(self):
        from repro.db.locks import LockTable
        from repro.faults import lock_storm_process
        from repro.sim import Engine

        engine = Engine()
        table = LockTable(engine)
        storm = LockStorm(start_s=0.0, duration_s=1.0,
                          warehouses_per_burst=1, hold_s=0.2, interval_s=0.2)
        engine.process(lock_storm_process(
            engine, table, storm, warehouses=1, rng=random.Random(1)))
        waits = []

        def victim():
            yield engine.timeout(0.1)  # storm holds ("wh", 0) by now
            waited = yield from table.acquire("victim", ("wh", 0))
            waits.append(waited)
            table.release_all("victim")

        engine.process(victim())
        engine.run(until=2.0)
        assert waits == [True]
