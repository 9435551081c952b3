"""Chaos tests for the sweep driver on the local pool: injected worker
death, hangs, and poisoned attempts must leave sweep results
bit-identical to the serial golden, with the degradation visible in
events/metrics."""

import json

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import (
    ChaosError,
    PoolExecutor,
    RunSpec,
    SupervisorPolicy,
    SweepFailure,
    backoff_delay,
    run_points,
    run_sweep,
)
from repro.experiments.resilience import SweepJournal
from repro.experiments.runner import sweep
from repro.fabric.chaos import FabricChaosPolicy as ChaosPolicy
from repro.obs import metrics as metrics_module
from repro.obs.sweep_report import build_sweep_report, degradation_section

GRID = (10, 25)
PROCESSORS = 1

#: Fast supervision knobs shared by every test: tiny backoff, quick
#: ticks, so chaos recovery costs milliseconds, not the defaults.
FAST_POLICY = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                               max_backoff_s=0.05, tick_s=0.02)


def canonical(results):
    """Byte-exact serialization, the determinism contract's currency."""
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


@pytest.fixture(scope="module")
def serial_reference():
    return canonical(sweep(GRID, PROCESSORS, settings=FAST_SETTINGS,
                           use_cache=False))


def make_specs():
    return [RunSpec(warehouses=w, processors=PROCESSORS,
                    settings=FAST_SETTINGS) for w in GRID]


def run_pool(pool, tmp_path, policy=FAST_POLICY, specs=None, **kwargs):
    """Run the grid on ``pool`` through the driver; results only."""
    points = run_points(specs or make_specs(), pool, policy=policy,
                        cache_dir=tmp_path / "cache", **kwargs)
    return [point.result for point in points]


def sweep_pool(pool, tmp_path, **kwargs):
    """A journaled-capable ``run_sweep`` of the grid on ``pool``."""
    return [point.result for point in run_sweep(
        GRID, PROCESSORS, settings=FAST_SETTINGS, executor=pool,
        policy=FAST_POLICY, cache_dir=tmp_path / "cache", **kwargs)]


class TestPolicyPrimitives:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = SupervisorPolicy(base_backoff_s=0.1, backoff_factor=2.0,
                                  max_backoff_s=0.5)
        first = backoff_delay("key-a", 1, policy)
        assert first == backoff_delay("key-a", 1, policy)
        # jitter desynchronizes different keys and attempts
        assert first != backoff_delay("key-b", 1, policy)
        assert first != backoff_delay("key-a", 2, policy)
        # exponential growth up to the cap (+ jitter < base)
        for attempt in range(1, 8):
            delay = backoff_delay("key-a", attempt, policy)
            assert 0.0 <= delay <= 0.5 + 0.1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(point_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            SupervisorPolicy(failure_threshold=0)


class TestChaosPolicy:
    def test_deterministic_action(self):
        chaos = ChaosPolicy(seed=7, kill=0.3, hang=0.3, poison=0.3,
                            attempts=2)
        actions = [chaos.action(f"key-{i}", 0) for i in range(50)]
        assert actions == [chaos.action(f"key-{i}", 0) for i in range(50)]
        assert {"kill", "hang", "poison"} & set(a for a in actions if a)

    def test_attempt_bound_guarantees_convergence(self):
        chaos = ChaosPolicy(kill=1.0, attempts=2)
        assert chaos.action("k", 0) == "kill"
        assert chaos.action("k", 1) == "kill"
        assert chaos.action("k", 2) is None

    def test_targets_scope_the_blast_radius(self):
        chaos = ChaosPolicy(poison=1.0, attempts=1, targets=("only-me",))
        assert chaos.action("only-me", 0) == "poison"
        assert chaos.action("someone-else", 0) is None

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ChaosPolicy(kill=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(kill=0.6, hang=0.6)


class TestPoisonRetry:
    def test_poisoned_first_attempts_retry_to_identical_results(
            self, tmp_path, serial_reference):
        pool = PoolExecutor(jobs=2, chaos=ChaosPolicy(poison=1.0, attempts=1))
        results = run_pool(pool, tmp_path)
        assert canonical(results) == serial_reference
        retries = [e for e in pool.events if e["event"] == "point-retry"]
        assert len(retries) == len(GRID)
        assert all("ChaosError" in e["error"] for e in retries)

    def test_retry_budget_exhaustion_raises_sweep_failure(self, tmp_path):
        pool = PoolExecutor(jobs=1, chaos=ChaosPolicy(poison=1.0, attempts=5))
        with pytest.raises(SweepFailure) as error:
            run_pool(pool, tmp_path,
                     policy=SupervisorPolicy(max_retries=1,
                                             base_backoff_s=0.005,
                                             tick_s=0.02))
        assert error.value.attempts == 2
        assert isinstance(error.value.last_error, ChaosError)


class TestPoolSelfHealing:
    def test_killed_worker_rebuilds_pool_not_serial(self, tmp_path,
                                                    serial_reference):
        # Every point's first attempt kills its worker: the pool breaks,
        # is rebuilt, and the second attempts complete — bit-identically.
        pool = PoolExecutor(jobs=2, chaos=ChaosPolicy(kill=1.0, attempts=1))
        completed = []
        results = run_pool(pool, tmp_path, on_result=lambda spec, point:
                           completed.append(spec.key()))
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in pool.events]
        assert kinds.count("pool-rebuild") >= 1
        assert "serial-fallback" not in kinds
        assert pool.usable()
        assert sorted(completed) == sorted(s.key() for s in make_specs())


class TestShardFailover:
    def test_all_shards_failed_falls_back_to_serial(self, tmp_path,
                                                    serial_reference):
        # Chaos kills first attempts of everything and the threshold is
        # 1: the pool is exhausted by the first kill, and the driver
        # must still finish the sweep in-process (where kill degrades to
        # poison, then the attempt bound clears).
        policy = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                                  tick_s=0.02, failure_threshold=1)
        pool = PoolExecutor(jobs=2, chaos=ChaosPolicy(kill=1.0, attempts=1))
        results = run_pool(pool, tmp_path, policy=policy)
        assert canonical(results) == serial_reference
        assert "serial-fallback" in {e["event"] for e in pool.events}


class TestTimeouts:
    def test_hung_worker_is_killed_and_retried(self, tmp_path,
                                               serial_reference):
        specs = make_specs()
        chaos = ChaosPolicy(hang=1.0, attempts=1, delay_s=30.0,
                            targets=(specs[0].key(),))
        policy = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                                  tick_s=0.02, point_timeout_s=1.0)
        pool = PoolExecutor(jobs=2, chaos=chaos)
        results = run_pool(pool, tmp_path, policy=policy, specs=specs)
        assert canonical(results) == serial_reference
        kinds = [e["event"] for e in pool.events]
        assert "point-timeout" in kinds
        assert "point-straggling" in kinds  # flagged before the deadline
        assert "point-retry" in kinds


class TestSupervisedSweep:
    def test_journal_is_the_merge_point_across_shards(self, tmp_path,
                                                      serial_reference):
        # Every first attempt kills its worker: the pool is rebuilt and
        # the journal still records each point once, from this process.
        journal_path = tmp_path / "sweep.jsonl"
        pool = PoolExecutor(jobs=2, chaos=ChaosPolicy(kill=1.0, attempts=1))
        results = sweep_pool(pool, tmp_path, journal=journal_path)
        assert canonical(results) == serial_reference
        journal = SweepJournal(journal_path)
        assert len(journal.load()) == len(GRID)

    def test_resume_skips_journaled_points(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        first = sweep_pool(PoolExecutor(jobs=2), tmp_path,
                           journal=journal_path)
        lines = journal_path.read_text().count("\n")
        second = sweep_pool(PoolExecutor(jobs=2), tmp_path,
                            journal=journal_path)
        assert journal_path.read_text().count("\n") == lines
        assert canonical(second) == canonical(first)

    def test_sweep_parallel_routes_through_supervisor(self, tmp_path,
                                                      serial_reference):
        pool = PoolExecutor(jobs=2, chaos=ChaosPolicy(poison=1.0, attempts=1))
        results = sweep_pool(pool, tmp_path)
        assert canonical(results) == serial_reference
        assert any(e["event"] == "point-retry" for e in pool.events)

    def test_serial_env_supervises_in_process(self, monkeypatch, tmp_path,
                                              serial_reference):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        pool = PoolExecutor(jobs=4, chaos=ChaosPolicy(kill=1.0, attempts=1))
        results = run_pool(pool, tmp_path)
        # kill degrades to poison in-process; retries still converge.
        assert canonical(results) == serial_reference
        assert any(e["event"] == "point-retry" for e in pool.events)


class TestDegradationTelemetry:
    def test_metrics_counters_and_stream_record_the_chaos(self, tmp_path,
                                                          serial_reference):
        stream = tmp_path / "events.jsonl"
        registry = metrics_module.enable_metrics(stream_path=str(stream))
        try:
            pool = PoolExecutor(jobs=2,
                                chaos=ChaosPolicy(kill=1.0, attempts=1))
            results = run_pool(pool, tmp_path)
        finally:
            metrics_module.disable_metrics()
        assert canonical(results) == serial_reference
        assert registry.counters["pool.point_retry"] == len(GRID)
        assert registry.counters["pool.pool_rebuild"] >= 1
        assert registry.counters["pool.points_completed"] == len(GRID)
        records = [json.loads(line) for line in
                   stream.read_text().splitlines()]
        assert any(r["event"] == "pool-point-retry" for r in records)
        assert any(r["event"] == "pool-pool-rebuild" for r in records)

    def test_degradation_timeline_lands_in_sweep_report(self, tmp_path):
        pool = PoolExecutor(jobs=2, chaos=ChaosPolicy(poison=1.0, attempts=1))
        points = run_points(make_specs(), pool, policy=FAST_POLICY,
                            trace=True, cache_dir=tmp_path / "cache")
        report = build_sweep_report(points, events=pool.events)
        text = report.to_markdown()
        assert "Degradation timeline" in text
        assert "point-retry" in text

    def test_degradation_section_shapes_event_fields(self):
        section = degradation_section([
            {"seq": 0, "event": "point-retry", "key": "k", "attempt": 1,
             "backoff_s": 0.01, "error": "ChaosError('x')"},
            {"seq": 1, "event": "shard-failover", "key": "k",
             "source": "sick", "target": "healthy"},
        ])
        assert len(section.rows) == 2
        assert section.rows[0][1] == "point-retry"
        assert "attempt=1" in section.rows[0][4]

    def test_supervised_telemetry_merges_into_parent_registry(
            self, tmp_path):
        registry = metrics_module.enable_metrics()
        try:
            run_points(make_specs(), PoolExecutor(jobs=2), policy=FAST_POLICY,
                       trace=True, cache_dir=tmp_path / "cache")
        finally:
            metrics_module.disable_metrics()
        assert registry.counters["runner.runs_finished"] == len(GRID)


class TestBackoffPortability:
    """backoff_delay must be a pure function of (key, attempt, policy) —
    identical on every platform and process, because two coordinators
    replaying the same failing sweep must back off identically."""

    def test_pinned_literal_values(self):
        # blake2b-seeded jitter is platform-independent; these literals
        # pin the contract against hash/float drift across interpreters.
        policy = SupervisorPolicy()  # base 0.05, factor 2.0, cap 2.0
        assert backoff_delay("pinned-key", 1, policy) == \
            pytest.approx(0.059465334029109765, abs=0, rel=1e-15)
        assert backoff_delay("pinned-key", 2, policy) == \
            pytest.approx(0.12398061597169135, abs=0, rel=1e-15)

    def test_matches_recomputed_formula(self):
        from repro.experiments.parallel import _unit_hash

        policy = SupervisorPolicy(base_backoff_s=0.1, backoff_factor=3.0,
                                  max_backoff_s=0.5)
        for attempt in (1, 2, 3, 7):
            expected = (min(0.1 * 3.0 ** (attempt - 1), 0.5)
                        + _unit_hash("backoff", "k", attempt) * 0.1)
            assert backoff_delay("k", attempt, policy) == expected


class TestSerialEnvWithShards:
    """REPRO_SERIAL=1 must win over any --jobs request or pool: every
    job budget collapses to one worker and execution never leaves the
    parent process."""

    def test_effective_jobs_forced_to_one(self, monkeypatch):
        from repro.experiments.parallel import effective_jobs

        monkeypatch.setenv("REPRO_SERIAL", "1")
        assert effective_jobs(8) == 1
        assert effective_jobs(None) == 1

    def test_sharded_supervisor_completes_serially(self, monkeypatch,
                                                   serial_reference):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        pool = PoolExecutor(jobs=8)
        results = [point.result for point in run_points(
            make_specs(), pool, policy=FAST_POLICY, use_cache=False)]
        assert canonical(results) == serial_reference
        # the serial path never built a pool
        assert pool._pool is None


class TestPoolTeardown:
    """_kill_pool must join terminated workers within a bound and
    escalate to SIGKILL, so chaos teardowns never leak zombies."""

    def test_sigterm_immune_worker_is_killed_and_joined(self):
        import time as time_module
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.parallel import _kill_pool

        pool = ProcessPoolExecutor(max_workers=1)
        pool.submit(_ignore_sigterm_and_sleep)
        time_module.sleep(0.5)  # let the worker install its handler
        processes = list(pool._processes.values())
        start = time_module.monotonic()
        _kill_pool(pool, join_timeout_s=1.0)
        elapsed = time_module.monotonic() - start
        assert elapsed < 5.0  # bounded, despite the immune worker
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None  # joined, not a zombie



def _ignore_sigterm_and_sleep():
    """Pool worker that shrugs off SIGTERM (the kill-escalation test)."""
    import signal
    import time as time_module

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time_module.sleep(60)
