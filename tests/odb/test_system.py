"""Integration tests for the assembled ODB system.

These run short simulations; the paper-shape assertions over full sweeps
live in tests/experiments and the benchmarks.
"""

import dataclasses

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.records import payload_checksum
from repro.experiments.runner import run_configuration
from repro.faults import FaultPlan, TransientAborts
from repro.hw.machine import GIB, ITANIUM2_QUAD, XEON_MP_QUAD
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.odb import OdbConfig, OdbSystem, popularity
from repro.odb import system as odb_system
from repro.workload import compile_workload, workload_by_name

from tests.db.reference_lru import snapshot
from tests.odb.reference_prewarm import oracle_prewarm


def run(warehouses=25, clients=8, processors=2, **kwargs):
    config = OdbConfig(warehouses=warehouses, clients=clients,
                       processors=processors, **kwargs)
    return OdbSystem(config).run(warmup_txns=100, measure_txns=500)


class TestConfigValidation:
    def test_processor_ceiling(self):
        with pytest.raises(ValueError):
            OdbConfig(warehouses=10, clients=4, processors=8)

    def test_positive_dimensions(self):
        with pytest.raises(ValueError):
            OdbConfig(warehouses=0, clients=4, processors=2)
        with pytest.raises(ValueError):
            OdbConfig(warehouses=10, clients=0, processors=2)

    def test_cpi_positive(self):
        with pytest.raises(ValueError):
            OdbConfig(warehouses=10, clients=4, processors=2, user_cpi=0)


class TestRun:
    def test_produces_consistent_metrics(self):
        metrics = run()
        assert metrics.transactions >= 500
        assert metrics.tps > 0
        assert 0 < metrics.cpu_utilization <= 1.0
        assert metrics.user_busy_share + metrics.os_busy_share == pytest.approx(1.0)
        assert metrics.user_ipx > 0.5e6
        assert metrics.os_ipx > 0
        assert 0 <= metrics.buffer_hit_rate <= 1
        assert metrics.context_switches_per_txn >= 0

    def test_determinism_same_seed(self):
        a = run(seed=11)
        b = run(seed=11)
        assert a == b

    def test_seed_changes_outcome(self):
        a = run(seed=11)
        b = run(seed=12)
        assert a.tps != b.tps

    def test_cached_setup_has_negligible_reads(self):
        metrics = run(warehouses=10, clients=6, processors=2)
        assert metrics.reads_per_txn < 0.05
        assert metrics.buffer_hit_rate > 0.99

    def test_scaled_setup_reads_grow(self):
        cached = run(warehouses=10, clients=6, processors=2)
        scaled = run(warehouses=300, clients=18, processors=2)
        assert scaled.reads_per_txn > cached.reads_per_txn + 1.0
        assert scaled.os_ipx > cached.os_ipx

    def test_log_bytes_independent_of_warehouses(self):
        small = run(warehouses=10, clients=6)
        large = run(warehouses=200, clients=12)
        assert small.log_bytes_per_txn == pytest.approx(6 * 1024, rel=0.25)
        assert large.log_bytes_per_txn == pytest.approx(
            small.log_bytes_per_txn, rel=0.15)

    def test_more_clients_raise_utilization(self):
        few = run(warehouses=100, clients=2, processors=2)
        many = run(warehouses=100, clients=12, processors=2)
        assert many.cpu_utilization > few.cpu_utilization

    def test_io_kb_properties(self):
        metrics = run(warehouses=200, clients=12)
        assert metrics.io_read_kb_per_txn == pytest.approx(
            metrics.reads_per_txn * 8, rel=1e-9)
        assert metrics.io_write_kb_per_txn > metrics.log_bytes_per_txn / 1024
        assert metrics.io_total_kb_per_txn == pytest.approx(
            metrics.io_read_kb_per_txn + metrics.io_write_kb_per_txn)

    def test_ipx_is_sum_of_spaces(self):
        metrics = run()
        assert metrics.ipx == metrics.user_ipx + metrics.os_ipx

    def test_itanium_machine_runs(self):
        metrics = run(machine=ITANIUM2_QUAD)
        assert metrics.tps > 0

    def test_time_limit_prevents_hangs(self):
        # Tiny client count at a huge workload: the txn target may be
        # unreachable in the time limit; we still get a window.
        config = OdbConfig(warehouses=400, clients=1, processors=1)
        metrics = OdbSystem(config).run(warmup_txns=10, measure_txns=50,
                                        time_limit_s=5.0)
        assert metrics.elapsed_s <= 5.0

    def test_time_limited_phase_leaves_clock_at_last_event(self, monkeypatch):
        # A phase stopped by its deadline ends the measurement window at
        # the last event it dispatched.  Pinning the clock to the
        # deadline would stretch elapsed_s over idle time and move every
        # time-limited point.  Here the last event before the deadline
        # wakes a process, so the clock must read the last resume's time.
        from tests.sim.recording import record_resumes

        resumed_at = []
        record_resumes(monkeypatch,
                       lambda engine, _ordinal: resumed_at.append(engine.now))
        system = OdbSystem(OdbConfig(warehouses=400, clients=1,
                                     processors=1))
        metrics = system.run(warmup_txns=10, measure_txns=10**9,
                             time_limit_s=5.0)
        assert metrics.transactions < 10**9   # the deadline stopped it
        assert system.engine.now == resumed_at[-1]
        assert metrics.elapsed_s < 5.0


class TestIronLawConsistency:
    def test_des_tps_matches_iron_law_at_measured_utilization(self):
        """The standing consistency check from DESIGN.md §3."""
        metrics = run(warehouses=50, clients=8, processors=2,
                      user_cpi=3.0, os_cpi=2.5)
        frequency = 1.6e9
        # Effective CPI the DES actually used:
        cpi = (metrics.user_ipx * 3.0 + metrics.os_ipx * 2.5) / metrics.ipx
        ideal_tps = (metrics.processors * frequency) / (metrics.ipx * cpi)
        predicted = ideal_tps * metrics.cpu_utilization
        assert metrics.tps == pytest.approx(predicted, rel=0.05)


PREWARM_PLANS = 300
BASE = dict(warehouses=10, clients=4, processors=1)

#: Each changes an input the prewarm reads, so it needs its own entry.
OWN_ENTRY = {
    "seed": dict(seed=43),
    "warehouses": dict(warehouses=11),
    "custom-segments": dict(
        workload=compile_workload(workload_by_name("key-value"))),
    "phased": dict(
        workload=compile_workload(workload_by_name("order-entry-burst"))),
    "remote-touch-prob": dict(workload=compile_workload(dataclasses.replace(
        workload_by_name("odb-standard"), remote_touch_prob=0.3))),
    # The buffer cache is a fixed share of the SGA, so a 0.3 GiB SGA
    # (against the default 3 GiB) shrinks it to a tenth.
    "buffer-cache-fraction": dict(machine=dataclasses.replace(
        XEON_MP_QUAD, memory_bytes=GIB + 3 * GIB // 10)),
    "machine-sga": dict(machine=dataclasses.replace(
        XEON_MP_QUAD, memory_bytes=GIB + GIB // 2)),
}

#: Each changes only what the prewarm never reads, so it reuses the entry.
REUSE = {
    "processors": dict(processors=4),
    "clients": dict(clients=32),
    "cpi": dict(user_cpi=4.0, os_cpi=3.0),
    "faults": dict(faults=FaultPlan(seed=3, aborts=TransientAborts(0.2))),
}


def _clear_prewarm_memo(monkeypatch) -> None:
    """Forget the memoised fill and prewarm for the rest of the test."""
    monkeypatch.setattr(odb_system, "_fill_memo", None)
    monkeypatch.setattr(odb_system, "_prewarm_memo", None)


def memo_prewarm(**overrides):
    """``(reused, state)`` of a memoised prewarm of the varied base."""
    system = OdbSystem(OdbConfig(**{**BASE, **overrides}))
    reused = system._prewarm_once(PREWARM_PLANS)
    return reused, list(snapshot(system.buffer_cache).items())


def fresh_prewarm(**overrides):
    """The state a full prewarm of the varied base must leave, from the
    pure-Python oracle, so no memo takes part."""
    system = OdbSystem(OdbConfig(**{**BASE, **overrides}))
    return list(oracle_prewarm(system, PREWARM_PLANS).entries.items())


class TestPrewarmReuse:
    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        _clear_prewarm_memo(monkeypatch)

    @pytest.mark.parametrize("variant", sorted(OWN_ENTRY))
    def test_prewarm_input_gets_its_own_entry(self, variant):
        reused, base = memo_prewarm()
        assert not reused
        reused, state = memo_prewarm(**OWN_ENTRY[variant])
        assert not reused
        assert state == fresh_prewarm(**OWN_ENTRY[variant])
        assert state != base  # the input really changes the prewarm

    @pytest.mark.parametrize("variant", sorted(REUSE))
    def test_other_inputs_reuse_the_entry(self, variant):
        memo_prewarm()
        reused, state = memo_prewarm(**REUSE[variant])
        assert reused
        assert state == fresh_prewarm(**REUSE[variant])

    def test_new_seed_reuses_the_fill_but_not_the_replay(self, monkeypatch):
        fills = []
        fill = popularity.steady_state_fill

        def counted_fill(*args):
            fills.append(args[1].warehouses)
            return fill(*args)

        monkeypatch.setattr(popularity, "steady_state_fill", counted_fill)
        assert memo_prewarm() == (False, fresh_prewarm())
        assert fills == [10]
        reused, state = memo_prewarm(seed=43)
        assert not reused and fills == [10]
        assert state == fresh_prewarm(seed=43)
        reused, state = memo_prewarm(warehouses=11, seed=43)
        assert not reused and fills == [10, 11]
        assert state == fresh_prewarm(warehouses=11, seed=43)

    def test_plan_count_is_part_of_the_key(self):
        memo_prewarm()
        system = OdbSystem(OdbConfig(**BASE))
        assert not system._prewarm_once(PREWARM_PLANS + 1)

    def test_run_configuration_checksum_matches_cleared_memo(
            self, monkeypatch):
        def run(registry):
            _metrics.enable_metrics(registry)
            tracer = _tracing.enable_tracing()
            try:
                result = run_configuration(100, 2, settings=FAST_SETTINGS,
                                           use_cache=False)
            finally:
                _tracing.disable_tracing()
                _metrics.disable_metrics()
            reused = [span.counters["reused"] for _depth, span
                      in tracer.walk() if span.name == "des-prewarm"]
            return payload_checksum(result.to_dict()), reused

        registry = _metrics.MetricsRegistry()
        memo_checksum, memo_reused = run(registry)
        assert memo_reused == [0, 1]
        assert registry.counters["odb.prewarm.reused"] == 1

        prewarm_once = OdbSystem._prewarm_once

        def cleared_first(system, plans):
            _clear_prewarm_memo(monkeypatch)
            return prewarm_once(system, plans)

        monkeypatch.setattr(OdbSystem, "_prewarm_once", cleared_first)
        registry = _metrics.MetricsRegistry()
        cleared_checksum, cleared_reused = run(registry)
        assert cleared_reused == [0, 0]
        assert registry.counters["odb.prewarm.reused"] == 0
        assert cleared_checksum == memo_checksum
