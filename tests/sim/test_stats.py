"""Tests for statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import Counter, Tally


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

