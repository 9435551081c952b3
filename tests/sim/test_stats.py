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
        assert t.n == 0

    def test_mean(self):
        t = Tally()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            t.record(v)
        assert t.mean == pytest.approx(5.0)
        assert t.n == 8

    def test_mean_is_welfords_update(self):
        """The exact floats of the running update, which the golden
        files pin through the read-latency and commit-wait means."""
        values = (0.1, 0.7, 1e-3, 2.5, 0.3)
        t = Tally()
        mean = 0.0
        for n, v in enumerate(values, 1):
            t.record(v)
            mean += (v - mean) / n
        assert t.mean == mean

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_mean_matches_reference(self, values):
        t = Tally()
        for v in values:
            t.record(v)
        assert t.mean == pytest.approx(sum(values) / len(values), abs=1e-6)
