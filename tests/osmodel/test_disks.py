"""Tests for the disk array model."""

import pytest

from repro.hw.machine import DiskConfig
from repro.osmodel.disks import LOG_DISKS, DiskArray
from repro.sim import Engine
from repro.sim.randomness import RandomStreams


def _busy(array) -> list[float]:
    """Busy fraction of each data disk since t=0 (none before t>0)."""
    elapsed = array.engine.now
    if elapsed <= 0:
        return [0.0]
    return [disk.busy_time() / elapsed for disk in array._data_disks]


def _data_utilization(array) -> float:
    """Mean busy fraction across the data disks."""
    busy = _busy(array)
    return sum(busy) / len(busy)


def _max_data_utilization(array) -> float:
    """Busy fraction of the hottest data disk."""
    return max(_busy(array))


def make(count=5, service=0.005, cv=0.0):
    """An array of ``count`` disks: ``count - 2`` data disks."""
    engine = Engine()
    config = DiskConfig(count=count, service_time_s=service,
                        service_time_cv=cv)
    array = DiskArray(engine, config, RandomStreams(9))
    return engine, array


class TestConfiguration:
    def test_log_disks_carved_from_total(self):
        _engine, array = make(count=6)
        assert array.data_disk_count == 4
        assert len(array._log_disks) == LOG_DISKS == 2

    def test_log_disks_bounds(self):
        # At least one data disk beside the log disks.
        with pytest.raises(ValueError):
            make(count=2)
        with pytest.raises(ValueError):
            make(count=1)
        assert make(count=3)[1].data_disk_count == 1


class TestReads:
    def test_read_takes_service_time(self):
        engine, array = make(cv=0.0)
        done = []

        def proc():
            yield from array.read(block_id=7)
            done.append(engine.now)

        engine.process(proc())
        engine.run()
        assert done == [pytest.approx(0.005)]
        assert array.read_latency.mean == pytest.approx(0.005)

    def test_blocks_stripe_across_disks(self):
        engine, array = make(count=6, cv=0.0)  # 4 data disks

        def proc(block):
            yield from array.read(block)

        for block in range(8):
            engine.process(proc(block))
        engine.run()
        assert [disk.grants for disk in array._data_disks] == [2, 2, 2, 2]
        # Two reads queue on each disk: the array finishes in two
        # service times, not eight.
        assert engine.now == pytest.approx(0.010)

    def test_same_disk_requests_queue(self):
        engine, array = make(cv=0.0)
        finished = []

        def proc():
            yield from array.read(block_id=0)
            finished.append(engine.now)

        engine.process(proc())
        engine.process(proc())  # same stripe disk
        engine.run()
        assert finished == [pytest.approx(0.005), pytest.approx(0.010)]
        # The second read's latency includes its 5 ms in the queue.
        assert array.read_latency.mean == pytest.approx(0.0075)

    def test_different_disks_run_in_parallel(self):
        engine, array = make(cv=0.0)

        def proc(block):
            yield from array.read(block)

        engine.process(proc(0))
        engine.process(proc(1))
        engine.run()
        assert engine.now == pytest.approx(0.005)


class TestWritesAndLog:
    def test_write_counted_separately(self):
        engine, array = make()

        def proc():
            yield from array.write(block_id=3)

        engine.process(proc())
        engine.run()
        assert array.writes.count == 1
        assert array.read_latency.n == 0

    def test_log_append_uses_log_disk_and_is_fast(self):
        engine, array = make(cv=0.0)

        def proc():
            yield from array.log_append()

        engine.process(proc())
        engine.run()
        assert engine.now == pytest.approx(
            0.005 * DiskArray.LOG_SERVICE_FACTOR)
        assert sum(disk.grants for disk in array._log_disks) == 1
        # Data disks untouched.
        assert _data_utilization(array) < 1e-9


class TestUtilization:
    def test_data_utilization_accounting(self):
        engine, array = make(count=4, cv=0.0)  # 2 data disks

        def proc():
            yield from array.read(block_id=0)

        engine.process(proc())
        engine.run()
        # One disk busy the whole (5ms) run of 2 data disks -> 50%.
        assert _data_utilization(array) == pytest.approx(0.5)
        assert _max_data_utilization(array) == pytest.approx(1.0)

    def test_saturation_under_offered_overload(self):
        engine, array = make(count=4, cv=0.0)  # 2 data disks

        def proc(block):
            yield from array.read(block)

        for i in range(20):
            engine.process(proc(i))
        engine.run()
        assert _data_utilization(array) == pytest.approx(1.0)

    def test_zero_elapsed(self):
        _engine, array = make()
        assert _data_utilization(array) == 0.0
        assert _max_data_utilization(array) == 0.0
