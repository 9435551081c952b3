"""Tests for statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Counter, Tally, TimeWeighted


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCounter:
    def test_accumulates(self):
        c = Counter("txn")
        c.add()
        c.add(2.5)
        assert c.count == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().add(-1)

    def test_rejects_nan(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.add(float("nan"))
        assert counter.count == 0.0

    def test_snapshot(self):
        c = Counter()
        c.add(4)
        snap = c.snapshot()
        c.add(1)
        assert snap == 4 and c.snapshot() == 5


class TestTally:
    def test_empty_tally_is_zero(self):
        t = Tally()
        assert t.mean == 0.0
        assert t.variance == 0.0

    def test_mean_and_variance(self):
        t = Tally()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            t.record(v)
        assert t.mean == pytest.approx(5.0)
        assert t.variance == pytest.approx(32.0 / 7.0)
        assert t.minimum == 2.0 and t.maximum == 9.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_mean_matches_reference(self, values):
        t = Tally()
        for v in values:
            t.record(v)
        assert t.mean == pytest.approx(sum(values) / len(values), abs=1e-6)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_variance_nonnegative(self, values):
        t = Tally()
        for v in values:
            t.record(v)
        assert t.variance >= -1e-9


class TestTimeWeighted:
    def test_constant_signal(self):
        clock = FakeClock()
        tw = TimeWeighted(clock, initial=3.0)
        clock.t = 10.0
        assert tw.mean() == pytest.approx(3.0)

    def test_step_signal(self):
        clock = FakeClock()
        tw = TimeWeighted(clock, initial=0.0)
        clock.t = 4.0
        tw.set(10.0)
        clock.t = 8.0
        # 4s at 0 plus 4s at 10 -> mean 5.
        assert tw.mean() == pytest.approx(5.0)

    def test_adjust_is_relative(self):
        clock = FakeClock()
        tw = TimeWeighted(clock, initial=2.0)
        tw.adjust(+3.0)
        assert tw.value == 5.0
        tw.adjust(-4.0)
        assert tw.value == 1.0

    def test_zero_elapsed_returns_current_value(self):
        clock = FakeClock()
        tw = TimeWeighted(clock, initial=7.0)
        assert tw.mean() == 7.0
