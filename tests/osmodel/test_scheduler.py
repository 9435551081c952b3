"""Tests for the CPU scheduler model."""

import pytest

from repro.osmodel.scheduler import Scheduler
from repro.sim import Engine


def make(processors=2, frequency=1e9):
    engine = Engine()
    return engine, Scheduler(engine, processors, frequency)


class TestValidation:
    def test_processors_positive(self):
        with pytest.raises(ValueError):
            Scheduler(Engine(), 0, 1e9)

    def test_frequency_positive(self):
        with pytest.raises(ValueError):
            Scheduler(Engine(), 1, 0)

    def test_negative_instructions_rejected(self):
        engine, scheduler = make()

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from scheduler.execute_user(-5)

        engine.process(proc())
        with pytest.raises(ValueError):
            engine.run()

    @pytest.mark.parametrize("kind", ["user", "os"])
    def test_nan_instructions_rejected(self, kind):
        engine, scheduler = make()
        execute = (scheduler.execute_user if kind == "user"
                   else scheduler.execute_os)

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from execute(float("nan"))

        engine.process(proc())
        with pytest.raises(ValueError):
            engine.run()
        assert scheduler.user_instructions.count == 0.0
        assert scheduler.os_instructions.count == 0.0


class TestExecution:
    def test_user_segment_takes_instructions_times_spi(self):
        engine, scheduler = make(frequency=1e9)
        scheduler.user_spi = 2.0 / 1e9  # CPI 2 at 1 GHz

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from scheduler.execute_user(1_000_000)
            scheduler.release(claim)

        engine.process(proc())
        engine.run()
        assert engine.now == pytest.approx(0.002)
        assert scheduler.user_instructions.count == 1_000_000
        assert scheduler.os_instructions.count == 0

    def test_user_and_os_accounting_split(self):
        engine, scheduler = make()

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from scheduler.execute_user(1000)
            yield from scheduler.execute_os(500)
            scheduler.release(claim)

        engine.process(proc())
        engine.run()
        assert scheduler.user_instructions.count == 1000
        assert scheduler.os_instructions.count == 500
        assert scheduler.user_busy_s > scheduler.os_busy_s > 0

    def test_different_spi_for_os(self):
        engine, scheduler = make(frequency=1e9)
        scheduler.user_spi = 4.0 / 1e9
        scheduler.os_spi = 1.0 / 1e9

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from scheduler.execute_user(100)
            yield from scheduler.execute_os(100)
            scheduler.release(claim)

        engine.process(proc())
        engine.run()
        assert scheduler.user_busy_s == pytest.approx(4 * scheduler.os_busy_s)


class TestBlocking:
    def test_block_counts_context_switch_and_charges_kernel(self):
        engine, scheduler = make(processors=1)

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from scheduler.block(claim)

        engine.process(proc())
        engine.run()
        assert scheduler.context_switches.count == 1
        assert scheduler.os_instructions.count == scheduler.costs.context_switch

    def test_release_does_not_count_switch(self):
        engine, scheduler = make()

        def proc():
            claim = scheduler.acquire()
            yield claim
            scheduler.release(claim)

        engine.process(proc())
        engine.run()
        assert scheduler.context_switches.count == 0

    def test_blocked_cpu_is_granted_to_waiter(self):
        engine, scheduler = make(processors=1)
        order = []

        def blocker():
            claim = scheduler.acquire()
            yield claim
            order.append("blocker-running")
            yield from scheduler.execute_user(100)
            yield from scheduler.block(claim)
            order.append("blocker-gone")

        def waiter():
            claim = scheduler.acquire()
            yield claim
            order.append("waiter-running")
            scheduler.release(claim)

        engine.process(blocker())
        engine.process(waiter())
        engine.run()
        assert order == ["blocker-running", "blocker-gone", "waiter-running"]


class TestUtilization:
    def test_full_utilization_single_cpu(self):
        engine, scheduler = make(processors=1, frequency=1e9)

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from scheduler.execute_user(1_000_000)
            scheduler.release(claim)

        engine.process(proc())
        engine.run()
        assert scheduler.utilization() == pytest.approx(1.0)

    def test_half_utilization_two_cpus_one_busy(self):
        engine, scheduler = make(processors=2)

        def proc():
            claim = scheduler.acquire()
            yield claim
            yield from scheduler.execute_user(1_000_000)
            scheduler.release(claim)

        engine.process(proc())
        engine.run()
        assert scheduler.utilization() == pytest.approx(0.5)

    def test_snapshot_keys(self):
        _engine, scheduler = make()
        snap = scheduler.snapshot()
        assert set(snap) == {"context_switches", "user_instructions",
                             "os_instructions", "user_busy_s", "os_busy_s",
                             "cpu_busy_time"}
