"""Tests for repro.obs.sweep_report: aggregation and report assembly.

Uses synthetic telemetry points (real RunSpec/RunManifest, fake result
namespaces, fake-clock traces) so section logic is exercised without
running the simulator; the CLI-level integration lives in CI's traced
sweep smoke.
"""

from types import SimpleNamespace

from repro.experiments.parallel import PointTelemetry, RunSpec
from repro.experiments.configs import FAST_SETTINGS
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.sweep_report import (
    PointInput,
    aggregate_phases,
    build_sweep_report,
    convergence_section,
    fold_sweep,
    phase_flame_section,
)
from repro.obs.tracing import Tracer


class FakeClock:
    def __init__(self, step: float):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def fake_trace() -> dict:
    tracer = Tracer(wall_clock=FakeClock(1.0), cpu_clock=FakeClock(0.5))
    with tracer.span("run"):
        with tracer.span("des"):
            pass
        with tracer.span("cpi-model"):
            pass
    return tracer.to_dict()


def fake_result(warehouses: int, processors: int = 1) -> SimpleNamespace:
    return SimpleNamespace(
        machine="odb-2003",
        warehouses=warehouses,
        clients=8 * warehouses,
        processors=processors,
        tps=100.0 + warehouses,
        tps_ironlaw=110.0 + warehouses,
        cpi=SimpleNamespace(cpi=4.2, user_cpi=4.0, os_cpi=5.1),
        rates=SimpleNamespace(l3_misses_per_instr=0.0123),
        system=SimpleNamespace(cpu_utilization=0.87,
                               reads_per_txn=0.25,
                               context_switches_per_txn=1.5),
        fixed_point_rounds=2,
    )


def fake_point(warehouses: int, cache_hit: bool = False,
               with_trace: bool = True) -> PointTelemetry:
    spec = RunSpec(warehouses=warehouses, processors=1,
                   settings=FAST_SETTINGS)
    manifest = RunManifest(
        config_key=spec.key(), machine="odb-2003",
        warehouses=warehouses, clients=spec.resolved_clients,
        processors=1, seed=1234, settings_fingerprint="fp",
        git_rev="abcdef0123456789", wall_time_s=1.5, cpu_time_s=1.2,
        fixed_point_rounds=2,
        round_deltas=[
            {"round": 0, "tps": 90.0, "cpi": 4.5,
             "tps_delta": None, "cpi_delta": None},
            {"round": 1, "tps": 100.0, "cpi": 4.2,
             "tps_delta": 10.0, "cpi_delta": -0.3},
        ])
    registry = MetricsRegistry()
    registry.inc("cache.hits" if cache_hit else "cache.misses")
    registry.inc("runner.rounds", 2)
    registry.observe("runner.run_s", 1.5)
    return PointTelemetry(
        spec=spec,
        result=fake_result(warehouses),
        manifest=manifest,
        trace=fake_trace() if with_trace else {},
        metrics=registry.to_dict(),
    )


class TestAggregatePhases:
    def test_folds_across_traces_and_sorts_slowest_first(self):
        aggregates = aggregate_phases([fake_trace(), fake_trace()])
        by_name = {agg.name: agg for agg in aggregates}
        assert set(by_name) == {"run", "des", "cpi-model"}
        assert by_name["run"].calls == 2
        assert aggregates[0].name == "run"  # encloses the others
        # Self time excludes children: run's self < run's wall.
        assert by_name["run"].self_s < by_name["run"].wall_s

    def test_ties_break_by_name_deterministically(self):
        first = [a.name for a in aggregate_phases([fake_trace()])]
        second = [a.name for a in aggregate_phases([fake_trace()])]
        assert first == second

    def test_empty_and_missing_traces_skipped(self):
        assert aggregate_phases([{}, None]) == []


class TestSweepTelemetry:
    def test_merged_metrics_sum_across_points(self):
        fold = fold_sweep([fake_point(10), fake_point(25),
                           fake_point(50, cache_hit=True)])
        registry = fold.registry
        assert registry.counters["cache.misses"] == 2.0
        assert registry.counters["cache.hits"] == 1.0
        assert registry.counters["runner.rounds"] == 6.0
        assert registry.timings["runner.run_s"]["count"] == 3.0

    def test_cache_hit_property_reads_counters(self):
        assert fake_point(10).cache_hit is False
        assert fake_point(10, cache_hit=True).cache_hit is True

    def test_live_and_rebuilt_points_fold_alike(self):
        live = fake_point(10)
        fold = fold_sweep([None, live,
                           PointInput("k25", fake_result(25), None)])
        assert fold.points[0] == PointInput(
            live.spec.key(), live.result, live.manifest, live.trace,
            live.metrics)
        assert fold.points[1].key == "k25"
        # Only the live point carries a trace and metrics.
        assert {agg.name: agg.calls for agg in fold.phases} == {
            "run": 1, "des": 1, "cpi-model": 1}
        assert fold.registry.counters["runner.rounds"] == 2.0


class TestSections:
    def test_convergence_rows_one_label_per_point(self):
        section = convergence_section([fake_point(10), fake_point(25)])
        assert len(section.rows) == 4  # 2 points x 2 rounds
        labels = [row[0] for row in section.rows]
        assert labels == ["W=10 P=1", "", "W=25 P=1", ""]
        assert section.headers == ["point", "round", "TPS", "CPI",
                                   "user CPI", "OS CPI", "ΔTPS", "ΔCPI"]
        assert section.rows[0][6] == "-"  # round 0 has no delta
        assert section.rows[1][6] == "+10.00"

    def test_phase_flame_self_shares_sum_to_one(self):
        aggregates = aggregate_phases([fake_trace()])
        section = phase_flame_section(aggregates)
        shares = [int(row[6].rstrip("%")) for row in section.rows]
        assert 95 <= sum(shares) <= 105

    def test_degradation_detail_carries_every_other_field(self):
        from repro.obs.sweep_report import degradation_section

        section = degradation_section([
            {"seq": 0, "event": "pool-rebuild", "failures": 2,
             "detail": "worker died"},
            {"seq": 1, "event": "serial-fallback", "remaining": 3,
             "reason": "pool exhausted"},
        ])
        assert section.headers == ["#", "event", "point", "detail"]
        assert section.rows[0] == [0, "pool-rebuild", "-",
                                   "detail=worker died, failures=2"]
        assert section.rows[1][3] == "reason=pool exhausted, remaining=3"


class TestBuildSweepReport:
    def test_all_sections_present_with_full_telemetry(self):
        report = build_sweep_report([fake_point(10), fake_point(25)])
        titles = [section.title for section in report.sections]
        assert titles == [
            "Sweep summary",
            "Cache provenance",
            "Fixed-point convergence",
            "Slowest phases across the sweep",
            "Metrics totals",
        ]
        assert report.title == "Sweep report — odb-2003 P=1 W∈{10,25}"

    def test_markdown_and_html_render(self):
        report = build_sweep_report([fake_point(10)])
        markdown = report.to_markdown()
        assert "Sweep summary" in markdown and "W=10" in markdown
        assert "<table>" in report.to_html()

    def test_traceless_points_drop_flame_section(self):
        report = build_sweep_report(
            [fake_point(10, cache_hit=True, with_trace=False)])
        titles = [section.title for section in report.sections]
        assert "Slowest phases across the sweep" not in titles
        assert "Sweep summary" in titles

    def test_none_points_ignored_and_empty_sweep_titled(self):
        report = build_sweep_report([None, fake_point(10), None])
        assert len(report.sections) == 5
        empty = build_sweep_report([])
        assert empty.title == "Sweep report — (no points)"
        assert empty.sections == []

    def test_explicit_title_wins(self):
        report = build_sweep_report([fake_point(10)], title="My sweep")
        assert report.title == "My sweep"


class TestEdgeCases:
    """Pin the degenerate shapes: empty sweep, one point, missing parts."""

    def test_empty_sweep_renders_without_sections(self):
        report = build_sweep_report([])
        markdown = report.to_markdown()
        assert "(no points)" in markdown
        assert "<html>" not in markdown
        assert report.to_html().startswith("<!DOCTYPE html>")

    def test_all_none_points_behave_like_empty(self):
        report = build_sweep_report([None, None])
        assert report.sections == []
        assert report.title == "Sweep report — (no points)"

    def test_single_point_sweep(self):
        report = build_sweep_report([fake_point(10)])
        summary = next(s for s in report.sections
                       if s.title == "Sweep summary")
        assert len(summary.rows) == 1
        assert report.title == "Sweep report — odb-2003 P=1 W∈{10}"
        markdown = report.to_markdown()
        assert "W=10" in markdown

    def test_point_without_manifest_still_renders(self):
        bare = PointTelemetry(
            spec=RunSpec(warehouses=10, processors=1,
                         settings=FAST_SETTINGS),
            result=fake_result(10), manifest=None, trace=fake_trace(),
            metrics=None)
        report = build_sweep_report([bare])
        titles = [section.title for section in report.sections]
        assert "Sweep summary" in titles
        # Convergence needs manifests (round deltas); without any, the
        # section is dropped rather than rendered empty.
        assert "Fixed-point convergence" not in titles
        report.to_markdown()  # renders without raising

    def test_point_without_metrics_drops_totals_section(self):
        quiet = PointTelemetry(
            spec=RunSpec(warehouses=10, processors=1,
                         settings=FAST_SETTINGS),
            result=fake_result(10), manifest=None, trace=fake_trace(),
            metrics=None)
        titles = [s.title for s in build_sweep_report([quiet]).sections]
        assert "Metrics totals" not in titles

    def test_mixed_present_and_missing_telemetry(self):
        full = fake_point(10)
        bare = PointTelemetry(
            spec=RunSpec(warehouses=25, processors=1,
                         settings=FAST_SETTINGS),
            result=fake_result(25), manifest=None, trace={}, metrics=None)
        report = build_sweep_report([full, bare])
        summary = next(s for s in report.sections
                       if s.title == "Sweep summary")
        assert len(summary.rows) == 2  # both points listed regardless
        report.to_markdown()

    def test_empty_events_list_adds_no_degradation_section(self):
        report = build_sweep_report([fake_point(10)], events=[])
        titles = [s.title for s in report.sections]
        assert all("egradation" not in t for t in titles)
