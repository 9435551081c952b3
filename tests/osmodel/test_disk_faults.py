"""Tests for fault injection at the disk-array level."""

import pytest

from repro.faults import DiskDegradation, DiskFaultModel, FaultPlan
from repro.hw.machine import DiskConfig
from repro.osmodel.disks import DiskArray
from repro.sim import Engine
from repro.sim.randomness import RandomStreams


def make(count=5, service=0.005, cv=0.0, plan=None):
    """An array of ``count - 2`` data disks and the two log disks."""
    engine = Engine()
    config = DiskConfig(count=count, service_time_s=service,
                        service_time_cv=cv)
    array = DiskArray(engine, config, RandomStreams(9))
    if plan is not None:
        array.fault_model = DiskFaultModel(plan, array.data_disk_count)
    return engine, array


def read_one(engine, array, block_id=0):
    """The time one read, alone on an idle array, finishes."""
    done = []

    def proc():
        yield from array.read(block_id)
        done.append(engine.now)

    engine.process(proc())
    engine.run()
    return done[0]


class TestDegradation:
    def test_latency_factor_inflates_service(self):
        plan = FaultPlan(disks=(DiskDegradation(disk=-1, latency_factor=3.0),))
        engine, array = make(plan=plan)
        assert read_one(engine, array) == pytest.approx(0.015)
        assert array.read_latency.mean == pytest.approx(0.015)

    def test_only_target_disk_degrades(self):
        plan = FaultPlan(disks=(DiskDegradation(disk=1, latency_factor=4.0),))
        engine, array = make(plan=plan)  # 3 data disks
        healthy = read_one(engine, array, block_id=0)
        engine2, array2 = make(plan=plan)
        degraded = read_one(engine2, array2, block_id=1)
        assert degraded == pytest.approx(4 * healthy)

    def test_dedicated_log_disks_unaffected(self):
        plan = FaultPlan(disks=(DiskDegradation(disk=-1, latency_factor=5.0),))
        engine, array = make(plan=plan)

        def proc():
            yield from array.log_append()

        engine.process(proc())
        engine.run()
        # Log append on a dedicated log disk keeps its healthy service
        # time (log stalls are a separate fault model).
        assert engine.now == pytest.approx(
            0.005 * DiskArray.LOG_SERVICE_FACTOR)

    def test_no_plan_is_bitwise_baseline(self):
        engine, array = make(cv=0.3)
        baseline = read_one(engine, array)
        engine2, array2 = make(cv=0.3)
        assert array2.fault_model is None
        assert read_one(engine2, array2) == baseline
        assert array2.read_latency.mean == array.read_latency.mean


class TestOutages:
    def test_outage_holds_the_request(self):
        plan = FaultPlan(disks=(
            DiskDegradation(disk=0, outages=((0.0, 0.5),)),))
        engine, array = make(plan=plan)
        # Serve waits out the outage window, then takes normal service.
        assert read_one(engine, array, block_id=0) == pytest.approx(
            0.5 + 0.005)

    def test_queue_drains_after_outage(self):
        plan = FaultPlan(disks=(
            DiskDegradation(disk=0, outages=((0.0, 0.1),)),))
        engine, array = make(plan=plan)
        finished = []

        def proc():
            yield from array.read(0)
            finished.append(engine.now)

        engine.process(proc())
        engine.process(proc())
        engine.run()
        assert finished[0] == pytest.approx(0.1 + 0.005)
        assert finished[1] == pytest.approx(0.1 + 2 * 0.005)
