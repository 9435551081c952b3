"""Tests for the EMON event table and round-robin sampler."""

import pytest

from repro.emon.events import EVENT_TABLE, EmonEvent, event_by_alias
from repro.emon.sampler import RoundRobinSampler, _rotation_groups


class TestEvents:
    def test_table2_events_present(self):
        aliases = {e.alias for e in EVENT_TABLE}
        for alias in ("instructions", "branch_mispredictions", "tlb_miss",
                      "tc_miss", "l2_miss", "l3_miss", "clock_cycles",
                      "bus_utilization", "bus_transaction_time"):
            assert alias in aliases

    def test_bus_transaction_time_uses_two_emon_events(self):
        event = event_by_alias("bus_transaction_time")
        assert set(event.emon_names) == {"IOQ_active_entries",
                                         "IOQ_allocation"}

    def test_unknown_alias(self):
        with pytest.raises(KeyError, match="known"):
            event_by_alias("flux_capacitor")

    def test_counter_group_validated(self):
        with pytest.raises(ValueError):
            EmonEvent("x", ("e",), "d", counter_group=9)


class TestRotationGroups:
    def test_all_events_fit_in_rotation(self):
        groups = _rotation_groups(EVENT_TABLE)
        placed = [e.alias for group in groups for e in group]
        assert sorted(placed) == sorted(e.alias for e in EVENT_TABLE)

    def test_no_group_overfills_a_pair(self):
        for group in _rotation_groups(EVENT_TABLE):
            for pair in range(9):
                assert sum(1 for e in group if e.counter_group == pair) <= 2


class TestRoundRobinSampler:
    def test_intervals_needed(self):
        sampler = RoundRobinSampler(EVENT_TABLE, repetitions=6)
        assert sampler.intervals_needed == len(sampler.groups) * 6

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundRobinSampler([])
        with pytest.raises(ValueError):
            RoundRobinSampler(EVENT_TABLE, repetitions=0)

    def test_constant_source_has_no_variance(self):
        events = [event_by_alias("instructions"), event_by_alias("l3_miss")]
        sampler = RoundRobinSampler(events, repetitions=4)
        sampled = sampler.measure(lambda: {"instructions": 100.0,
                                           "l3_miss": 5.0})
        assert sampled.mean("instructions") == pytest.approx(100.0)
        assert sampled.stdev("l3_miss") == 0.0
        assert sampled.coefficient_of_variation("l3_miss") == 0.0

    def test_each_event_sampled_per_repetition(self):
        events = [event_by_alias("instructions"), event_by_alias("tlb_miss")]
        sampler = RoundRobinSampler(events, repetitions=5)
        sampled = sampler.measure(lambda: {"instructions": 1.0,
                                           "tlb_miss": 1.0})
        for alias in ("instructions", "tlb_miss"):
            assert len(sampled.samples[alias]) == 5

    def test_bursty_source_yields_variance(self):
        # The source alternates between quiet and busy intervals; a
        # rotating sampler sees different slices per event and picks up
        # variance — the Figure 11 artifact.
        ticks = {"n": 0}

        def source():
            ticks["n"] += 1
            busy = ticks["n"] % 3 == 0
            return {"l3_miss": 50.0 if busy else 2.0, "instructions": 100.0}

        events = [event_by_alias("l3_miss"), event_by_alias("tlb_miss"),
                  event_by_alias("instructions")]
        sampler = RoundRobinSampler(events, repetitions=6)
        sampled = sampler.measure(source)
        assert sampled.coefficient_of_variation("l3_miss") > 0.3

    def test_mean_of_empty_is_zero(self):
        events = [event_by_alias("instructions")]
        sampler = RoundRobinSampler(events, repetitions=1)
        sampled = sampler.measure(lambda: {})
        assert sampled.mean("instructions") == 0.0
