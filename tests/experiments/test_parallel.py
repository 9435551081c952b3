"""Tests for the local pool behind the sweep driver: determinism, journal
serialization, and graceful degradation to the serial path."""

import json

import pytest

from repro.experiments import parallel as parallel_module
from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import (
    PoolExecutor,
    RunSpec,
    effective_jobs,
    map_parallel,
    run_many,
    run_sweep,
    sweep_telemetry,
)
from repro.experiments.resilience import SweepJournal
from repro.experiments.runner import sweep

GRID = (10, 25)
PROCESSORS = 1


def canonical(results):
    """Byte-exact serialization, the determinism contract's currency."""
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def sweep_results(grid, jobs=None, **kwargs):
    """A local-executor :func:`run_sweep`, results only."""
    return [point.result for point in run_sweep(
        grid, PROCESSORS, settings=FAST_SETTINGS,
        executor=PoolExecutor(jobs), **kwargs)]


@pytest.fixture()
def serial_reference():
    return canonical(sweep(GRID, PROCESSORS, settings=FAST_SETTINGS,
                           use_cache=False))


class ExplodingPool:
    """A process pool that cannot even be created (fork forbidden)."""

    def __init__(self, *args, **kwargs):
        raise OSError("forking forbidden")


class TestEffectiveJobs:
    def test_explicit_jobs_pass_through(self):
        assert effective_jobs(3) == 3

    def test_floor_is_one(self):
        assert effective_jobs(0) == 1
        assert effective_jobs(-4) == 1

    def test_default_is_cpu_count(self):
        import os

        assert effective_jobs(None) == (os.cpu_count() or 1)

    def test_serial_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        assert effective_jobs(8) == 1
        assert effective_jobs(None) == 1


class TestDeterminism:
    def test_parallel_sweep_bit_identical_to_serial(self, tmp_path,
                                                    serial_reference):
        results = sweep_results(GRID, jobs=2, cache_dir=tmp_path / "cache")
        assert canonical(results) == serial_reference

    def test_run_many_preserves_spec_order(self, tmp_path, serial_reference):
        # Submit the grid reversed: results must follow the spec list,
        # never worker completion order.
        specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                         settings=FAST_SETTINGS) for w in reversed(GRID)]
        results = run_many(specs, jobs=2, cache_dir=tmp_path / "cache")
        assert canonical(results) == list(reversed(serial_reference))

    def test_serial_env_delegates_and_matches(self, monkeypatch, tmp_path,
                                              serial_reference):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        results = sweep_results(GRID, cache_dir=tmp_path / "cache")
        assert canonical(results) == serial_reference


class TestJournal:
    def test_parent_journals_every_point(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        sweep_results(GRID, jobs=2, cache_dir=tmp_path / "cache",
                      journal=journal_path)
        journal = SweepJournal(journal_path)
        completed = journal.load()
        assert len(completed) == len(GRID)
        assert journal.skipped == 0

    def test_resume_skips_journaled_points(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        first = sweep_results(GRID, jobs=2, cache_dir=tmp_path / "cache",
                              journal=journal_path)
        lines_after_first = journal_path.read_text().count("\n")
        second = sweep_results(GRID, jobs=2, cache_dir=tmp_path / "cache",
                               journal=journal_path)
        # Nothing re-journaled, and the resumed results are identical.
        assert journal_path.read_text().count("\n") == lines_after_first
        assert canonical(second) == canonical(first)


class TestFallback:
    def test_broken_pool_degrades_to_serial(self, monkeypatch, tmp_path,
                                            serial_reference):
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            ExplodingPool)
        specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                         settings=FAST_SETTINGS) for w in GRID]
        results = run_many(specs, jobs=2, cache_dir=tmp_path / "cache")
        assert canonical(results) == serial_reference

    def test_map_parallel_fallback_preserves_order(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            ExplodingPool)
        assert map_parallel(abs, [-3, 2, -1], jobs=4) == [3, 2, 1]


class TestMapParallel:
    def test_preserves_item_order(self):
        assert map_parallel(abs, [-5, 4, -3], jobs=2) == [5, 4, 3]

    def test_empty_items(self):
        assert map_parallel(abs, [], jobs=2) == []


class TestTelemetrySweep:
    def test_workers_ship_spans_and_results_stay_identical(
            self, tmp_path, serial_reference):
        points = sweep_telemetry(GRID, PROCESSORS, settings=FAST_SETTINGS,
                                 jobs=2, cache_dir=tmp_path / "cache")
        # Bit-identity: the traced pool sweep returns exactly the
        # untraced serial results (DESIGN.md §9).
        assert canonical(p.result for p in points) == serial_reference
        # Every computed point carries its worker's span tree, rooted
        # at the runner's top-level span, plus a manifest and metrics.
        from repro.obs.tracing import Tracer

        for point, warehouses in zip(points, GRID):
            assert point.spec.warehouses == warehouses
            assert not point.cache_hit
            tracer = Tracer.from_dict(point.trace)
            names = [span.name for _d, span in tracer.walk()]
            assert "run-configuration" in names
            assert point.manifest is not None
            assert point.manifest.fixed_point_rounds > 0
            assert point.metrics["counters"]["runner.runs_finished"] == 1.0

    def test_parent_registry_accumulates_worker_metrics(self, tmp_path):
        from repro.obs import metrics as metrics_module

        registry = metrics_module.enable_metrics()
        try:
            sweep_telemetry(GRID, PROCESSORS, settings=FAST_SETTINGS,
                            jobs=2, cache_dir=tmp_path / "cache")
        finally:
            metrics_module.disable_metrics()
        assert registry.counters["runner.runs_finished"] == len(GRID)
        assert registry.counters["cache.misses"] == len(GRID)

    def test_cache_hits_skip_tracing_but_keep_manifest(self, tmp_path):
        sweep_telemetry(GRID, PROCESSORS, settings=FAST_SETTINGS,
                        jobs=1, cache_dir=tmp_path / "cache")
        rerun = sweep_telemetry(GRID, PROCESSORS, settings=FAST_SETTINGS,
                                jobs=1, cache_dir=tmp_path / "cache")
        for point in rerun:
            assert point.cache_hit
            assert point.manifest is not None  # the original run's
            assert point.trace == {}  # nothing simulated, nothing traced

    def test_serial_and_pool_telemetry_results_match(self, tmp_path):
        serial = sweep_telemetry(GRID, PROCESSORS, settings=FAST_SETTINGS,
                                 jobs=1, use_cache=False)
        pooled = sweep_telemetry(GRID, PROCESSORS, settings=FAST_SETTINGS,
                                 jobs=2, cache_dir=tmp_path / "cache")
        assert (canonical(p.result for p in serial)
                == canonical(p.result for p in pooled))


class TestRunSpec:
    def test_key_matches_runner_key(self):
        from repro.experiments.runner import configuration_key
        from repro.hw.machine import XEON_MP_QUAD

        spec = RunSpec(warehouses=10, processors=1, settings=FAST_SETTINGS)
        assert spec.key() == configuration_key(
            XEON_MP_QUAD, 10, spec.resolved_clients, 1, FAST_SETTINGS)

    def test_explicit_clients_resolve_verbatim(self):
        spec = RunSpec(warehouses=10, processors=1, clients=7,
                       settings=FAST_SETTINGS)
        assert spec.resolved_clients == 7


class TestSerialEnvParsing:
    """REPRO_SERIAL edge cases: truthy spellings, garbage, emptiness."""

    @pytest.mark.parametrize("value", ["1", "true", "TRUE", " yes ", "On"])
    def test_truthy_spellings_force_serial(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SERIAL", value)
        assert parallel_module.serial_forced()
        assert effective_jobs(8) == 1

    @pytest.mark.parametrize("value", ["", "0", "false", "banana", "2"])
    def test_garbage_does_not_flip_policy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SERIAL", value)
        assert not parallel_module.serial_forced()
        assert effective_jobs(8) == 8

    def test_unset_is_not_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERIAL", raising=False)
        assert not parallel_module.serial_forced()


class TestPointFailure:
    def test_run_many_raises_the_point_error_after_retries(self, monkeypatch,
                                                          tmp_path):
        from repro.experiments.parallel import SupervisorPolicy

        calls = []

        def failing(spec, *args, **kwargs):
            calls.append(spec.key())
            raise ValueError("bad point")

        monkeypatch.setattr(parallel_module, "execute_point", failing)
        spec = RunSpec(warehouses=10, processors=PROCESSORS,
                       settings=FAST_SETTINGS)
        # One pending point runs in-process, where the patch applies.
        with pytest.raises(ValueError, match="bad point"):
            run_many([spec], jobs=2, cache_dir=tmp_path / "cache")
        # The driver's default budget: the first try plus every retry.
        assert len(calls) == 1 + SupervisorPolicy().max_retries


class TestPartialFallback:
    """A mid-sweep pool break must keep completed points, not recompute."""

    @staticmethod
    def _half_broken_pool(good_key, good_payload, error):
        """A fake process pool: the ``good_key`` spec's future completes
        with ``good_payload`` immediately; every other future breaks
        with ``error`` shortly *after* (so the driver observes the
        completed point before the pool failure, deterministically)."""
        import threading
        from concurrent.futures import Future

        class HalfBrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def shutdown(self, *args, **kwargs):
                pass

            def submit(self, fn, spec, *args, **kwargs):
                future = Future()
                if spec.key() == good_key:
                    future.set_result(good_payload)
                else:
                    timer = threading.Timer(
                        0.2, lambda: future.set_exception(error))
                    timer.daemon = True
                    timer.start()
                return future

        return HalfBrokenPool

    def test_run_many_fallback_skips_completed_points(self, monkeypatch,
                                                      tmp_path,
                                                      serial_reference):
        from concurrent.futures.process import BrokenProcessPool

        specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                         settings=FAST_SETTINGS) for w in GRID]
        first_point = parallel_module.execute_point(
            specs[0], str(tmp_path / "warm"), True)
        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor",
            self._half_broken_pool(specs[0].key(), first_point,
                                   BrokenProcessPool("worker died")))
        serial_runs = []
        original = parallel_module.execute_point

        def counting_run_spec(spec, *args, **kwargs):
            serial_runs.append(spec.key())
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(parallel_module, "execute_point",
                            counting_run_spec)
        journaled = []
        results = run_many(specs, jobs=2, cache_dir=tmp_path / "cache",
                           on_result=lambda spec, result:
                           journaled.append(spec.key()))
        assert canonical(results) == serial_reference
        # Only the broken point was recomputed in the fallback pass ...
        assert serial_runs == [specs[1].key()]
        # ... and each point was journaled exactly once overall.
        assert sorted(journaled) == sorted(spec.key() for spec in specs)

    def test_run_telemetry_fallback_keeps_completed_points(self, monkeypatch,
                                                           tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments.parallel import run_telemetry

        specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                         settings=FAST_SETTINGS) for w in GRID]
        first_point = parallel_module.execute_point(
            specs[0], str(tmp_path / "warm"), True, trace=True)
        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor",
            self._half_broken_pool(specs[0].key(), first_point,
                                   BrokenProcessPool("worker died")))
        serial_runs = []
        original = parallel_module.execute_point

        def counting(spec, *args, **kwargs):
            serial_runs.append(spec.key())
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(parallel_module, "execute_point", counting)
        points = run_telemetry(specs, jobs=2, cache_dir=tmp_path / "cache")
        assert [p.spec.warehouses for p in points] == list(GRID)
        assert serial_runs == [specs[1].key()]

    def test_fallback_is_counted_when_metrics_active(self, monkeypatch,
                                                     tmp_path):
        from repro.obs import metrics as metrics_module

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            ExplodingPool)
        specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                         settings=FAST_SETTINGS) for w in GRID]
        registry = metrics_module.enable_metrics()
        try:
            run_many(specs, jobs=2, cache_dir=tmp_path / "cache")
        finally:
            metrics_module.disable_metrics()
        assert registry.counters["pool.serial_fallback"] == 1.0
