"""Tests for the TLB, branch predictor, and bus models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.branch import BimodalPredictor
from repro.hw.bus import BusModel
from repro.hw.machine import BusConfig, TlbConfig
from repro.hw.tlb import Tlb

from tests.hw import kernel_driver


def _rates(predictor) -> float:
    """Mispredictions / predictions (0 when never used)."""
    counters = predictor._c
    return (counters.mispredictions / counters.predictions
            if counters.predictions else 0.0)


def _reset(predictor) -> None:
    predictor._c.predictions = predictor._c.mispredictions = 0


def _train(predictor, pc: int, taken: bool, times: int) -> None:
    for _ in range(times):
        kernel_driver.predict(predictor, pc, taken)


class TestTlb:
    def test_page_granularity(self):
        tlb = Tlb(TlbConfig(entries=4, associativity=4, page_bytes=4096))
        assert not kernel_driver.translate(tlb, 0x0000)
        assert kernel_driver.translate(tlb, 0x0FFF)  # same page
        assert not kernel_driver.translate(tlb, 0x1000)  # next page

    def test_capacity_eviction(self):
        tlb = Tlb(TlbConfig(entries=2, associativity=2, page_bytes=4096))
        for address in (0x0000, 0x1000, 0x2000):  # the last evicts page 0
            kernel_driver.translate(tlb, address)
        assert not kernel_driver.translate(tlb, 0x0000)

    def test_flush(self):
        tlb = Tlb(TlbConfig(entries=4, associativity=4))
        kernel_driver.translate(tlb, 0x0000)
        assert kernel_driver.flush(tlb._cache) == 1
        assert not kernel_driver.translate(tlb, 0x0000)

    def test_miss_rate_accounting(self):
        tlb = Tlb(TlbConfig(entries=4, associativity=4))
        kernel_driver.translate(tlb, 0x0000)
        kernel_driver.translate(tlb, 0x0000)
        stats = kernel_driver.stats(tlb._cache)
        assert stats["accesses"] == 2
        assert stats["misses"] == 1


class TestBimodalPredictor:
    def test_learns_biased_branch(self):
        predictor = BimodalPredictor(table_size=16)
        _train(predictor, pc=3, taken=True, times=4)
        _reset(predictor)
        _train(predictor, pc=3, taken=True, times=100)
        assert _rates(predictor) == 0.0

    def test_learns_not_taken(self):
        predictor = BimodalPredictor(table_size=16)
        _train(predictor, pc=5, taken=False, times=4)
        _reset(predictor)
        _train(predictor, pc=5, taken=False, times=50)
        assert _rates(predictor) == 0.0

    def test_alternating_branch_mispredicts_heavily(self):
        predictor = BimodalPredictor(table_size=16)
        for i in range(200):
            kernel_driver.predict(predictor, pc=7, taken=bool(i % 2))
        assert _rates(predictor) > 0.4

    def test_aliasing_two_pcs_same_slot(self):
        predictor = BimodalPredictor(table_size=4)
        # pc=1 and pc=5 alias; opposing biases interfere.
        for _ in range(50):
            kernel_driver.predict(predictor, pc=1, taken=True)
            kernel_driver.predict(predictor, pc=5, taken=False)
        assert _rates(predictor) > 0.3

    def test_flush_resets_state(self):
        predictor = BimodalPredictor(table_size=16)
        _train(predictor, pc=2, taken=False, times=10)
        kernel_driver.predictor_flush(predictor)
        _reset(predictor)
        kernel_driver.predict(predictor, pc=2, taken=False)
        # back to the weakly-taken default
        assert predictor._c.mispredictions == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BimodalPredictor(table_size=0)

    @given(st.lists(st.tuples(st.integers(0, 100), st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_rate_bounded(self, branches):
        predictor = BimodalPredictor(table_size=32)
        for pc, taken in branches:
            kernel_driver.predict(predictor, pc, taken)
        assert 0.0 <= _rates(predictor) <= 1.0
        assert predictor._c.predictions == len(branches)


class TestBusModel:
    def make(self, **kwargs):
        return BusModel(BusConfig(**kwargs))

    def test_unloaded_time_is_base(self):
        bus = self.make(base_transaction_cycles=102.0)
        assert bus.transaction_time(0.0) == pytest.approx(102.0)

    def test_time_increases_with_utilization(self):
        bus = self.make()
        times = [bus.transaction_time(u) for u in (0.0, 0.2, 0.4, 0.6)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_utilization_linear_in_rate(self):
        bus = self.make(occupancy_cycles=20.0)
        assert bus.utilization(0.01) == pytest.approx(0.2)
        assert bus.utilization(0.02) == pytest.approx(0.4)

    def test_utilization_capped(self):
        bus = self.make(occupancy_cycles=20.0, max_utilization=0.9)
        assert bus.utilization(1.0) == 0.9

    def test_load_for_scales_with_processors(self):
        bus = self.make()
        load1 = bus.load_for(mpi=0.005, cpi=3.0, processors=1)
        load4 = bus.load_for(mpi=0.005, cpi=3.0, processors=4)
        assert load4.transactions_per_cycle == pytest.approx(
            4 * load1.transactions_per_cycle)

    def test_writebacks_add_transactions(self):
        bus = self.make()
        without = bus.load_for(mpi=0.005, cpi=3.0, processors=2)
        with_wb = bus.load_for(mpi=0.005, cpi=3.0, processors=2,
                               writeback_ratio=0.5)
        assert with_wb.transactions_per_cycle == pytest.approx(
            1.5 * without.transactions_per_cycle)

    def test_excess_time_zero_at_idle(self):
        # The IOQ time above the unloaded baseline (Table 4's delta term).
        bus = self.make()
        base = bus.config.base_transaction_cycles
        assert bus.transaction_time(0.0) - base == 0.0
        assert bus.transaction_time(0.5) - base > 0.0

    def test_input_validation(self):
        bus = self.make()
        with pytest.raises(ValueError):
            bus.utilization(-0.1)
        with pytest.raises(ValueError):
            bus.transaction_time(1.5)
        with pytest.raises(ValueError):
            bus.load_for(mpi=-1, cpi=3.0, processors=1)
        with pytest.raises(ValueError):
            bus.load_for(mpi=0.01, cpi=0.0, processors=1)
        with pytest.raises(ValueError):
            bus.load_for(mpi=0.01, cpi=3.0, processors=0)

    @given(st.floats(min_value=0.0, max_value=0.94))
    @settings(max_examples=60, deadline=None)
    def test_time_at_least_base(self, utilization):
        bus = self.make()
        assert bus.transaction_time(utilization) >= 102.0
