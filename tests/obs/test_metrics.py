"""Tests for repro.obs.metrics: registry, off switch, JSONL stream.

Covers the three contracts of DESIGN.md §10: metrics are off by
default (module helpers are no-ops), the JSONL event stream carries
the documented run-started/round-completed/run-finished schema, and an
instrumented run stays bit-identical to the untraced golden.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.runner import run_configuration
from repro.obs import metrics
from repro.obs.metrics import (
    MetricsRegistry,
    current_registry,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "experiments" / "golden"


@pytest.fixture(autouse=True)
def _metrics_off():
    """Never leak an installed registry into other tests."""
    yield
    disable_metrics()


class TestRegistry:
    def test_counters_add(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 2.5)
        assert registry.counters == {"a": 3.5}

    def test_gauges_take_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("g", 1.0)
        registry.gauge("g", 7.0)
        assert registry.gauges == {"g": 7.0}

    def test_timings_aggregate(self):
        registry = MetricsRegistry()
        for value in (0.2, 0.5, 0.1):
            registry.observe("t", value)
        stat = registry.timings["t"]
        assert stat["count"] == 3.0
        assert stat["total_s"] == pytest.approx(0.8)
        assert stat["min_s"] == pytest.approx(0.1)
        assert stat["max_s"] == pytest.approx(0.5)

    def test_merge_combines_all_kinds(self):
        a = MetricsRegistry()
        a.inc("c", 1)
        a.observe("t", 0.5)
        a.gauge("g", 1.0)
        b = MetricsRegistry()
        b.inc("c", 2)
        b.observe("t", 0.1)
        b.observe("u", 9.0)
        b.gauge("g", 3.0)
        a.merge(b.to_dict())
        assert a.counters == {"c": 3.0}
        assert a.gauges == {"g": 3.0}
        assert a.timings["t"] == {"count": 2.0, "total_s": 0.6,
                                  "min_s": 0.1, "max_s": 0.5}
        assert a.timings["u"]["count"] == 1.0

    def test_to_dict_round_trips_through_merge(self):
        a = MetricsRegistry()
        a.inc("x", 4)
        fresh = MetricsRegistry()
        fresh.merge(a.to_dict())
        assert fresh.to_dict() == a.to_dict()


class TestModuleSwitch:
    def test_off_by_default(self):
        assert metrics_enabled() is False
        assert current_registry() is None
        assert metrics.ACTIVE is False

    def test_disabled_helpers_are_noops(self):
        metrics.inc("never")
        metrics.gauge("never", 1.0)
        metrics.observe("never", 1.0)
        metrics.emit("never")  # must not raise

    def test_enable_installs_and_disable_returns(self):
        registry = enable_metrics()
        assert metrics_enabled() and current_registry() is registry
        metrics.inc("hit")
        returned = disable_metrics()
        assert returned is registry
        assert returned.counters == {"hit": 1.0}
        assert metrics_enabled() is False

    def test_enable_accepts_existing_registry(self):
        mine = MetricsRegistry()
        assert enable_metrics(mine) is mine

    def test_stream_path_override(self, tmp_path):
        registry = enable_metrics(stream_path=str(tmp_path / "m.jsonl"))
        assert registry.stream_path == str(tmp_path / "m.jsonl")


class TestStreamSchema:
    def test_emit_writes_one_schema_stamped_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        registry = MetricsRegistry(stream_path=str(path))
        registry.emit("run-started", key="k", warehouses=10)
        registry.emit("run-finished", key="k", tps=500.0)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["schema"] == metrics.STREAM_SCHEMA_VERSION
        assert first["event"] == "run-started"
        assert first["key"] == "k" and first["warehouses"] == 10
        assert isinstance(first["ts"], float) and isinstance(first["pid"], int)
        assert json.loads(lines[1])["event"] == "run-finished"

    def test_no_stream_path_means_no_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.emit("run-started", key="k")
        assert list(tmp_path.iterdir()) == []

    def test_run_emits_documented_event_sequence(self, tmp_path):
        path = tmp_path / "run.jsonl"
        enable_metrics(stream_path=str(path))
        try:
            run_configuration(10, 1, settings=FAST_SETTINGS,
                              use_cache=False)
        finally:
            disable_metrics()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        names = [event["event"] for event in events]
        rounds = FAST_SETTINGS.fixed_point_rounds
        assert names == (["run-started"] + ["round-completed"] * rounds
                         + ["run-finished"])
        started = events[0]
        assert {"key", "machine", "warehouses", "clients", "processors",
                "seed", "faulted"} <= started.keys()
        for index, record in enumerate(events[1:1 + rounds]):
            assert record["round"] == index
            assert {"tps", "cpi", "user_cpi", "os_cpi", "tps_delta",
                    "cpi_delta"} <= record.keys()
        assert events[1]["tps_delta"] is None  # round 0 has no previous
        assert events[2]["tps_delta"] is not None
        finished = events[-1]
        assert {"tps", "cpi", "rounds", "wall_s", "cpu_s"} <= finished.keys()
        assert all(event["key"] == started["key"] for event in events)


class TestPublishing:
    def test_run_publishes_runner_engine_and_cache_counters(self):
        registry = enable_metrics()
        try:
            run_configuration(10, 1, settings=FAST_SETTINGS,
                              use_cache=False)
        finally:
            disable_metrics()
        counters = registry.counters
        assert counters["runner.runs_started"] == 1.0
        assert counters["runner.runs_finished"] == 1.0
        assert counters["runner.rounds"] == FAST_SETTINGS.fixed_point_rounds
        assert counters["engine.des_runs"] > 0
        assert counters["engine.transactions"] > 0
        assert registry.timings["runner.run_s"]["count"] == 1.0

    def test_cache_hit_and_miss_counters(self, tmp_path):
        from repro.experiments.records import ResultCache

        cache = ResultCache(tmp_path / "cache")
        registry = enable_metrics()
        try:
            run_configuration(10, 1, settings=FAST_SETTINGS, cache=cache)
            run_configuration(10, 1, settings=FAST_SETTINGS, cache=cache)
        finally:
            disable_metrics()
        assert registry.counters["cache.misses"] == 1.0
        assert registry.counters["cache.hits"] == 1.0
        assert registry.counters["cache.stores"] == 1.0

    def test_metrics_enabled_run_matches_untraced_golden(self):
        golden = json.loads(
            (GOLDEN_DIR / "config_w50_p2_fast.json").read_text())
        enable_metrics()
        try:
            result = run_configuration(50, 2, settings=FAST_SETTINGS,
                                       use_cache=False)
        finally:
            disable_metrics()
        assert result.to_dict() == golden, (
            "metrics publishing perturbed the simulation")


class TestSchedulerPublishing:
    def test_publish_scheduler_metrics_counters(self):
        from repro.sim import Engine
        from repro.sim.engine import publish_scheduler_metrics

        registry = enable_metrics()
        try:
            engine = Engine()
            for delay in (1.0, 2.0, 3.0):
                engine.timeout(delay)
            engine.timeout(4.0).cancel()
            engine.run()
            publish_scheduler_metrics(engine)
        finally:
            disable_metrics()
        counters = registry.counters
        assert counters["scheduler.scheduled"] == 4.0
        assert counters["scheduler.dispatched"] == 3.0
        assert counters["scheduler.skipped_dead"] == 1.0
        assert counters["scheduler.compactions"] == 0.0
        assert registry.gauges["scheduler.max_depth"] >= 3.0

    def test_publish_is_noop_when_disabled(self):
        from repro.sim import Engine
        from repro.sim.engine import publish_scheduler_metrics

        publish_scheduler_metrics(Engine())  # must not raise

    def test_run_publishes_scheduler_counters(self):
        registry = enable_metrics()
        try:
            run_configuration(10, 1, settings=FAST_SETTINGS,
                              use_cache=False)
        finally:
            disable_metrics()
        counters = registry.counters
        assert counters["scheduler.scheduled"] > 0
        assert counters["scheduler.dispatched"] > 0
        # Every dispatched event went through a counted Engine.run call.
        assert counters["engine.events"] == counters["scheduler.dispatched"]
        assert "scheduler.max_depth" in registry.gauges
