"""Tests for the exp_* modules' analysis and rendering paths.

Uses synthetic ConfigResults shaped like a paper sweep, so no simulation
runs; the simulated end-to-end versions live in the benchmarks.
"""

from dataclasses import replace

import pytest

from repro.core.cpi_model import CpiBreakdown, CpiSolution
from repro.experiments import exp_fig02, exp_modeling, exp_tables234
from repro.experiments.configs import FULL_WAREHOUSE_GRID, client_count
from repro.experiments.exp_system_figs import SystemSweep
from repro.experiments import exp_system_figs, exp_processor_figs
from repro.experiments.records import ConfigResult
from repro.hw.machine import XEON_MP_QUAD
from repro.hw.trace import MicroarchRates
from repro.odb.system import SystemMetrics

GRID = (10, 25, 50, 100, 150, 200, 400, 800)


def synthetic_record(warehouses: int, processors: int) -> ConfigResult:
    """A record following the paper's shapes analytically."""
    knee = 130.0
    cached = min(warehouses, knee)
    scaled = max(0.0, warehouses - knee)
    l3_mpi = (0.002 + 0.00004 * cached + 0.0000006 * scaled)
    reads = max(0.0, (warehouses - 30) * 0.008)
    switches = (6.0 if warehouses <= 10 else 1.2) + reads
    os_ipx = 5e4 + reads * 2.6e4 + switches * 9e3
    cpi_value = 1.5 + 350 * l3_mpi * (1 + 0.1 * processors)
    breakdown = CpiBreakdown(inst=0.5, branch=0.2, tlb=0.05, tc=0.12,
                             l2=0.2, l3=350 * l3_mpi, other=0.35)
    solution = CpiSolution(
        breakdown=breakdown, cpi=cpi_value,
        bus_utilization=0.1 * processors + 0.02,
        bus_transaction_time=102.0 + 15.0 * processors,
        iterations=3, user_cpi=cpi_value * 1.05, os_cpi=cpi_value * 0.8)
    user_ipx = 1.2e6
    tps = processors * 1.6e9 / ((user_ipx + os_ipx) * cpi_value) * 0.9
    system = SystemMetrics(
        warehouses=warehouses, clients=8 * processors,
        processors=processors, elapsed_s=10.0, transactions=2000,
        tps=tps, cpu_utilization=0.91 if warehouses <= 800 else 0.6,
        user_busy_share=0.9, os_busy_share=0.1,
        user_ipx=user_ipx, os_ipx=os_ipx,
        reads_per_txn=reads, data_writes_per_txn=reads * 0.4,
        log_flushes_per_txn=0.5, log_bytes_per_txn=6 * 1024,
        context_switches_per_txn=switches,
        lock_waits_per_txn=0.5 if warehouses <= 10 else 0.05,
        buffer_hit_rate=max(0.5, 1.0 - reads / 14.0),
        disk_utilization=min(0.85, reads / 7.0),
        max_disk_utilization=min(0.9, reads / 6.0),
        read_latency_s=0.006, commit_wait_s=0.002, group_commit_size=2.0)
    rates = MicroarchRates(
        mispredicts_per_instr=0.010, tlb_misses_per_instr=0.0025,
        tc_misses_per_instr=0.006, l2_misses_per_instr=l3_mpi * 2.6,
        l3_misses_per_instr=l3_mpi, user_l3_mpi=l3_mpi * 1.1,
        os_l3_mpi=l3_mpi * 0.7, l3_writeback_ratio=0.18,
        coherence_miss_fraction=0.03 * (processors - 1),
        l3_miss_ratio=min(0.62, 0.2 + warehouses / 1000))
    return ConfigResult(
        machine="synthetic", warehouses=warehouses,
        clients=system.clients, processors=processors, system=system,
        rates=rates, cpi=solution, tps_ironlaw=tps / 0.9,
        fixed_point_rounds=3)


@pytest.fixture(scope="module")
def synthetic_sweep() -> SystemSweep:
    return SystemSweep(by_processors={
        p: [synthetic_record(w, p) for w in GRID] for p in (1, 2, 4)})


class TestSystemRenderers:
    def test_fig03(self, synthetic_sweep):
        text = exp_system_figs.render_fig03(synthetic_sweep)
        assert "Figure 3" in text and "OS share" in text

    def test_fig04_06(self, synthetic_sweep):
        text = exp_system_figs.render_fig04_06(synthetic_sweep)
        for token in ("Figure 4", "Figure 5", "Figure 6", "4P"):
            assert token in text

    def test_fig07(self, synthetic_sweep):
        text = exp_system_figs.render_fig07(synthetic_sweep)
        assert "Figure 7" in text and "log KB" in text

    def test_fig08(self, synthetic_sweep):
        text = exp_system_figs.render_fig08(synthetic_sweep)
        assert "Figure 8" in text

    def test_sweep_accessors(self, synthetic_sweep):
        assert synthetic_sweep.warehouses == list(GRID)
        tps = synthetic_sweep.column(4, lambda r: r.tps)
        assert len(tps) == len(GRID)


class TestProcessorRenderers:
    def test_fig09_11(self, synthetic_sweep):
        text = exp_processor_figs.render_fig09_11(synthetic_sweep)
        for token in ("Figure 9", "Figure 10", "Figure 11"):
            assert token in text

    def test_fig12(self, synthetic_sweep):
        text = exp_processor_figs.render_fig12(synthetic_sweep)
        assert "Figure 12" in text and "l3" in text and "other" in text

    def test_fig13_15(self, synthetic_sweep):
        text = exp_processor_figs.render_fig13_15(synthetic_sweep)
        for token in ("Figure 13", "Figure 14", "Figure 15", "saturation"):
            assert token in text

    def test_fig16(self, synthetic_sweep):
        text = exp_processor_figs.render_fig16(synthetic_sweep)
        assert "Figure 16" in text and "Bus utilization" in text


class TestFig02Classification:
    def test_classify_regions(self):
        cached = synthetic_record(10, 4)
        assert exp_fig02.classify(cached) == "cpu-bound"
        balanced = synthetic_record(400, 4)
        assert exp_fig02.classify(balanced) == "balanced"
        io_bound = synthetic_record(1200, 4)
        assert exp_fig02.classify(io_bound) == "io-bound"


def xeon_sweep_of(grid, processors=(1, 2, 4)) -> SystemSweep:
    """A synthetic sweep whose records name the default machine."""
    return SystemSweep(by_processors={
        p: [replace(synthetic_record(w, p), machine=XEON_MP_QUAD.name)
            for w in grid] for p in processors})


class TestFig02FromSweep:
    @pytest.fixture
    def launched(self, monkeypatch):
        launched = []

        def run_many(specs, jobs=None):
            launched.extend(specs)
            return [synthetic_record(s.warehouses, s.processors)
                    for s in specs]

        monkeypatch.setattr(exp_fig02, "run_many", run_many)
        return launched

    def test_runs_only_the_io_bound_points(self, launched):
        sweep = xeon_sweep_of(FULL_WAREHOUSE_GRID)
        result = exp_fig02.run(sweep=sweep)
        assert [(s.warehouses, s.processors, s.clients) for s in launched] \
            == [(1200, p, client_count(FULL_WAREHOUSE_GRID[-1], p))
                for p in (1, 2, 4)]
        assert result.by_processors == sweep.by_processors
        assert result.by_processors[4] is not sweep.by_processors[4]
        assert result.regions(4)[1200] == "io-bound"

    def test_builds_the_sweep_from_its_own_arguments(self, launched,
                                                     monkeypatch):
        calls = []

        def sweep_run(**kwargs):
            calls.append(kwargs)
            return xeon_sweep_of(FULL_WAREHOUSE_GRID, kwargs["processors"])

        monkeypatch.setattr(exp_system_figs, "run", sweep_run)
        result = exp_fig02.run(processors=(2, 4), jobs=3)
        assert calls == [dict(machine=XEON_MP_QUAD,
                              settings=exp_fig02.DEFAULT_SETTINGS,
                              processors=(2, 4), jobs=3)]
        assert [s.processors for s in launched] == [2, 4]
        assert sorted(result.by_processors) == [2, 4]

    @pytest.mark.parametrize("sweep", [
        xeon_sweep_of(GRID),
        xeon_sweep_of(FULL_WAREHOUSE_GRID, processors=(1, 2)),
        SystemSweep(by_processors={
            p: [synthetic_record(w, p) for w in FULL_WAREHOUSE_GRID]
            for p in (1, 2, 4)}),
    ], ids=["other-grid", "missing-processors", "other-machine"])
    def test_rejects_a_mismatched_sweep(self, launched, sweep):
        with pytest.raises(ValueError, match="FULL_WAREHOUSE_GRID"):
            exp_fig02.run(sweep=sweep)
        assert launched == []


class TestModeling:
    def test_analyze_finds_pivots_near_knee(self, synthetic_sweep):
        result = exp_modeling.analyze(synthetic_sweep.by_processors)
        for p in (1, 2, 4):
            assert 80 < result.cpi_analyses[p].pivot_warehouses < 250
            assert 80 < result.mpi_analyses[p].pivot_warehouses < 250

    def test_render_table5(self, synthetic_sweep):
        result = exp_modeling.analyze(synthetic_sweep.by_processors)
        text = exp_modeling.render_table5(result)
        assert "Table 5" in text and "CPI pivot" in text
        assert "119" in text  # the paper column

    def test_render_fig17_18(self, synthetic_sweep):
        result = exp_modeling.analyze(synthetic_sweep.by_processors)
        text = exp_modeling.render_fig17_18(result)
        assert "Figure 17" in text and "Figure 18" in text
        assert "pivot at" in text

    def test_extrapolation_pivot_wins(self, synthetic_sweep):
        result = exp_modeling.analyze(synthetic_sweep.by_processors)
        reports = exp_modeling.run_extrapolation(result, train_max=300.0)
        for metric_reports in reports.values():
            by_model = {r.model: r for r in metric_reports}
            assert (by_model["pivot-scaled-line"].mean_relative_error
                    < by_model["cached-setup"].mean_relative_error)
        text = exp_modeling.render_extrapolation(reports)
        assert "pivot-scaled-line" in text


class TestTables234:
    def test_render_all_contains_paper_constants(self):
        text = exp_tables234.render_all()
        assert "Table 2" in text and "Table 3" in text and "Table 4" in text
        assert "300" in text  # L3 miss cycles
        assert "102" in text  # 1P bus-transaction time
        assert "instr_retired" in text
