"""Paper-shape integration tests over a reduced warehouse grid.

Each test asserts a qualitative claim from the paper against the coupled
runner at FAST fidelity.  The full-fidelity series live in the benchmark
harness and EXPERIMENTS.md.
"""

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import run_configuration

GRID = (10, 50, 150, 400, 800)


def sweep(processors):
    return [point.result for point in run_sweep(GRID, processors,
                                                settings=FAST_SETTINGS)]


@pytest.fixture(scope="module")
def sweep_4p():
    return sweep(4)


@pytest.fixture(scope="module")
def sweep_1p():
    return sweep(1)


def series(records, getter):
    return [getter(r) for r in records]


class TestThroughput:
    def test_tps_declines_from_cached_to_scaled(self, sweep_4p):
        tps = series(sweep_4p, lambda r: r.tps)
        assert tps[0] > 1.5 * tps[-1]

    def test_more_processors_more_tps(self, sweep_4p, sweep_1p):
        for four, one in zip(sweep_4p, sweep_1p):
            assert four.tps > 1.5 * one.tps

    def test_iron_law_consistency(self, sweep_4p):
        """TPS_measured ~= TPS_ironlaw * utilization (DESIGN.md §3)."""
        for record in sweep_4p:
            predicted = record.tps_ironlaw * record.system.cpu_utilization
            assert record.tps == pytest.approx(predicted, rel=0.08)


class TestIpx:
    def test_user_ipx_flat(self, sweep_4p):
        user = series(sweep_4p, lambda r: r.system.user_ipx)
        assert max(user) < 1.15 * min(user)

    def test_os_ipx_grows(self, sweep_4p):
        os_ipx = series(sweep_4p, lambda r: r.system.os_ipx)
        assert os_ipx[-1] > 2 * min(os_ipx)

    def test_total_ipx_increases_with_w(self, sweep_4p):
        ipx = series(sweep_4p, lambda r: r.ipx)
        assert ipx[-1] > ipx[0]


class TestIo:
    def test_reads_negligible_when_cached(self, sweep_4p):
        assert sweep_4p[0].system.reads_per_txn < 0.1

    def test_reads_grow_with_w(self, sweep_4p):
        reads = series(sweep_4p, lambda r: r.system.reads_per_txn)
        assert all(b >= a - 0.2 for a, b in zip(reads, reads[1:]))
        assert reads[-1] > 3.0

    def test_log_traffic_constant(self, sweep_4p):
        log_kb = series(sweep_4p, lambda r: r.system.log_bytes_per_txn / 1024)
        assert max(log_kb) < 1.2 * min(log_kb)

    def test_write_traffic_mostly_log_when_cached(self, sweep_4p):
        cached = sweep_4p[0].system
        assert (cached.data_writes_per_txn * 8
                < 0.5 * cached.log_bytes_per_txn / 1024)


class TestContextSwitches:
    def test_contention_spike_at_smallest_config(self, sweep_4p):
        cs = series(sweep_4p, lambda r: r.system.context_switches_per_txn)
        assert cs[0] > cs[1]  # 10W above the cached minimum

    def test_switches_track_reads_at_scale(self, sweep_4p):
        big = sweep_4p[-1].system
        assert big.context_switches_per_txn == pytest.approx(
            big.reads_per_txn + 1.0, abs=1.5)

    def test_lock_waits_decline_with_w(self, sweep_4p):
        waits = series(sweep_4p, lambda r: r.system.lock_waits_per_txn)
        assert waits[0] > waits[-1]


class TestCpiAndMpi:
    def test_cpi_rises_then_levels(self, sweep_4p):
        cpi = series(sweep_4p, lambda r: r.cpi.cpi)
        assert cpi[-1] > 1.5 * cpi[0]
        # Cached-region slope (per W) much steeper than scaled-region.
        early = (cpi[1] - cpi[0]) / (50 - 10)
        late = (cpi[-1] - cpi[-2]) / (800 - 400)
        assert early > 3 * late

    def test_cpi_grows_with_processors(self, sweep_4p, sweep_1p):
        for four, one in zip(sweep_4p, sweep_1p):
            assert four.cpi.cpi > one.cpi.cpi

    def test_mpi_roughly_processor_independent(self, sweep_4p, sweep_1p):
        for four, one in zip(sweep_4p, sweep_1p):
            ratio = (four.rates.l3_misses_per_instr
                     / one.rates.l3_misses_per_instr)
            assert 0.7 < ratio < 1.6

    def test_l3_dominates_cpi_at_scale(self, sweep_4p):
        assert sweep_4p[-1].cpi.l3_share > 0.45

    def test_branch_and_compute_flat(self, sweep_4p):
        branch = series(sweep_4p, lambda r: r.cpi.breakdown.branch)
        assert max(branch) < 1.3 * min(branch)
        inst = series(sweep_4p, lambda r: r.cpi.breakdown.inst)
        assert max(inst) == min(inst) == 0.5

    def test_miss_ratio_saturates_below_three_quarters(self, sweep_4p):
        ratios = series(sweep_4p, lambda r: r.rates.l3_miss_ratio)
        assert max(ratios) < 0.75

    def test_coherence_minor_at_scale(self, sweep_4p):
        assert sweep_4p[-1].rates.coherence_miss_fraction < 0.15


class TestBus:
    def test_1p_ioq_near_baseline(self, sweep_1p):
        for record in sweep_1p:
            assert record.cpi.bus_transaction_time < 102 * 1.3

    def test_4p_ioq_rises_well_above_baseline(self, sweep_4p):
        assert sweep_4p[-1].cpi.bus_transaction_time > 102 * 1.5

    def test_bus_utilization_ordering(self, sweep_4p, sweep_1p):
        assert (sweep_4p[-1].cpi.bus_utilization
                > 2 * sweep_1p[-1].cpi.bus_utilization)


class TestDeterminism:
    def test_runner_is_deterministic(self):
        a = run_configuration(50, 2, clients=5, settings=FAST_SETTINGS,
                              use_cache=False)
        b = run_configuration(50, 2, clients=5, settings=FAST_SETTINGS,
                              use_cache=False)
        assert a == b
