"""Tests for the analytical cache models, including a differential
check against the set-associative simulator on IRM traffic."""

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.analytic import (
    che_characteristic_time,
    irm_hit_rate,
    mpi_prediction,
    working_set_miss_rate,
    zipf_popularities,
)
from repro.hw.cache import SetAssociativeCache
from repro.hw.machine import CacheConfig
from repro.sim.randomness import RandomStreams, zipf_cdf


class TestCheApproximation:
    def test_characteristic_time_matches_occupancy(self):
        pops = zipf_popularities(200, 0.8)
        t = che_characteristic_time(pops, capacity=50)
        occupancy = sum(1.0 - math.exp(-p * t) for p in pops)
        assert occupancy == pytest.approx(50.0, rel=1e-6)

    def test_cache_as_large_as_catalog(self):
        pops = zipf_popularities(10, 1.0)
        assert che_characteristic_time(pops, capacity=10) == math.inf
        assert irm_hit_rate(pops, capacity=10) == 1.0

    def test_validation(self):
        pops = zipf_popularities(10, 1.0)
        with pytest.raises(ValueError):
            che_characteristic_time(pops, capacity=0)
        with pytest.raises(ValueError):
            che_characteristic_time([], capacity=1)
        with pytest.raises(ValueError):
            che_characteristic_time([0.0, 0.0], capacity=1)

    def test_hit_rate_monotone_in_capacity(self):
        pops = zipf_popularities(500, 0.9)
        rates = [irm_hit_rate(pops, c) for c in (10, 50, 200, 499)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_hit_rate_higher_for_more_skew(self):
        flat = irm_hit_rate(zipf_popularities(500, 0.1), 50)
        skewed = irm_hit_rate(zipf_popularities(500, 1.2), 50)
        assert skewed > flat

    def test_zero_capacity(self):
        assert irm_hit_rate(zipf_popularities(10, 1.0), 0) == 0.0

    @given(st.integers(min_value=2, max_value=300),
           st.floats(min_value=0.0, max_value=1.5),
           st.integers(min_value=1, max_value=299))
    @settings(max_examples=60, deadline=None)
    def test_hit_rate_bounded(self, n, skew, capacity):
        rate = irm_hit_rate(zipf_popularities(n, skew), capacity)
        assert 0.0 <= rate <= 1.0


class TestDifferentialAgainstSimulator:
    def simulate_hit_rate(self, n, skew, capacity_lines, refs=60_000,
                          seed=3):
        # Fully associative LRU of `capacity_lines`; IRM Zipf stream.
        cache = SetAssociativeCache(
            CacheConfig("t", capacity_lines * 64, 64, capacity_lines))
        rng = RandomStreams(seed).stream("irm")
        cdf = zipf_cdf(n, skew)
        for _ in range(refs // 3):  # warm-up
            cache.access(bisect_left(cdf, rng.random()) * 64)
        cache.reset_stats()
        for _ in range(refs):
            cache.access(bisect_left(cdf, rng.random()) * 64)
        return 1.0 - cache.miss_rate

    @pytest.mark.parametrize("skew,capacity", [(0.6, 64), (1.0, 64),
                                               (0.8, 128)])
    def test_simulated_lru_matches_che(self, skew, capacity):
        n = 1000
        simulated = self.simulate_hit_rate(n, skew, capacity)
        predicted = irm_hit_rate(zipf_popularities(n, skew), capacity)
        assert simulated == pytest.approx(predicted, abs=0.03)


class TestWorkingSetModel:
    def test_zero_below_capacity(self):
        assert working_set_miss_rate(100, 200) == 0.0
        assert working_set_miss_rate(200, 200) == 0.0

    def test_grows_above_capacity(self):
        small = working_set_miss_rate(400, 200)
        large = working_set_miss_rate(4000, 200)
        assert 0 < small < large < 1

    def test_saturates_at_cold_fraction(self):
        rate = working_set_miss_rate(1e12, 200, hot_fraction=0.4)
        assert rate == pytest.approx(0.6, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            working_set_miss_rate(100, 0)
        with pytest.raises(ValueError):
            working_set_miss_rate(-1, 10)
        with pytest.raises(ValueError):
            working_set_miss_rate(100, 10, hot_fraction=2.0)


class TestMpiPrediction:
    def test_knee_at_capacity_crossing(self):
        capacity = 1200
        lines_per_warehouse = 6.0
        below = mpi_prediction(100, lines_per_warehouse, capacity, 0.02)
        above = mpi_prediction(400, lines_per_warehouse, capacity, 0.02)
        assert below == 0.0  # 600 lines < capacity
        assert above > 0.0

    def test_knee_scales_with_capacity(self):
        # The documented Figure 19 divergence, stated as a property.
        def knee(capacity):
            w = 1
            while mpi_prediction(w, 6.0, capacity, 0.02) == 0.0:
                w += 1
            return w

        assert knee(2400) == pytest.approx(2 * knee(1200), abs=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            mpi_prediction(0, 6.0, 100, 0.02)
        with pytest.raises(ValueError):
            mpi_prediction(10, 6.0, 100, 0.0)
