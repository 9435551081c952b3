"""Tests for Che's approximation of LRU under IRM traffic, including a
differential check of the compiled set-associative cache against it."""

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.analytic import zipf_popularities
from repro.hw.cache import SetAssociativeCache
from repro.hw.machine import CacheConfig
from repro.sim.randomness import RandomStreams, zipf_cdf

from tests.hw import kernel_driver
from tests.hw.reference_analytic import che_characteristic_time, irm_hit_rate


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
            kernel_driver.access(cache, bisect_left(cdf, rng.random()) * 64)
        hits = sum(kernel_driver.access(
            cache, bisect_left(cdf, rng.random()) * 64).hit
            for _ in range(refs))
        return hits / refs

    @pytest.mark.parametrize("skew,capacity", [(0.6, 64), (1.0, 64),
                                               (0.8, 128)])
    def test_simulated_lru_matches_che(self, skew, capacity):
        n = 1000
        simulated = self.simulate_hit_rate(n, skew, capacity)
        predicted = irm_hit_rate(zipf_popularities(n, skew), capacity)
        assert simulated == pytest.approx(predicted, abs=0.03)
