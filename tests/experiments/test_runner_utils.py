"""Tests for runner utilities: fingerprints, sweep plumbing, caching."""

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import run_configuration, settings_fingerprint


def sweep(grid, processors, **kwargs):
    """An in-process :func:`run_sweep` at FAST fidelity, results only."""
    return [point.result for point in run_sweep(
        grid, processors, settings=FAST_SETTINGS, **kwargs)]


class TestSettingsFingerprint:
    def test_stable(self):
        assert settings_fingerprint(FAST_SETTINGS) == \
            settings_fingerprint(FAST_SETTINGS)

    def test_sensitive_to_every_field(self):
        base = settings_fingerprint(FAST_SETTINGS)
        import dataclasses

        for field in ("warmup_txns", "measure_txns", "trace_txns",
                      "trace_warmup", "fixed_point_rounds", "seed"):
            changed = dataclasses.replace(
                FAST_SETTINGS, **{field: getattr(FAST_SETTINGS, field) + 1})
            assert settings_fingerprint(changed) != base, field

    def test_short_hex(self):
        fp = settings_fingerprint(FAST_SETTINGS)
        assert len(fp) == 12
        int(fp, 16)  # valid hex


class TestSweepPlumbing:
    def test_sweep_respects_clients_fn(self):
        records = sweep((10, 50), 2, clients_fn=lambda w, p: 3)
        assert all(r.clients == 3 for r in records)

    def test_sweep_defaults_to_client_table(self):
        from repro.experiments.configs import client_count

        records = sweep((10,), 2)
        assert records[0].clients == client_count(10, 2)

    def test_sweep_preserves_grid_order(self):
        records = sweep((50, 10), 1)
        assert [r.warehouses for r in records] == [50, 10]


class TestCachingBehavior:
    def test_cache_roundtrip_through_runner(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_module
        from repro.experiments.records import ResultCache

        monkeypatch.setattr(runner_module, "_CACHE",
                            ResultCache(directory=tmp_path))
        first = run_configuration(10, 1, clients=2, settings=FAST_SETTINGS)
        assert list(tmp_path.glob("*.json"))
        second = run_configuration(10, 1, clients=2, settings=FAST_SETTINGS)
        assert first == second

    def test_use_cache_false_skips_store(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_module
        from repro.experiments.records import ResultCache

        monkeypatch.setattr(runner_module, "_CACHE",
                            ResultCache(directory=tmp_path))
        run_configuration(10, 1, clients=2, settings=FAST_SETTINGS,
                          use_cache=False)
        assert not list(tmp_path.glob("*.json"))

    def test_explicit_cache_overrides_default(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_module
        from repro.experiments.records import ResultCache

        default_dir = tmp_path / "default"
        injected_dir = tmp_path / "injected"
        monkeypatch.setattr(runner_module, "_CACHE",
                            ResultCache(directory=default_dir))
        run_configuration(10, 1, clients=2, settings=FAST_SETTINGS,
                          cache=ResultCache(directory=injected_dir))
        assert list(injected_dir.glob("*.json"))
        assert not default_dir.exists()

    def test_default_cache_honors_env_dir(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        # force lazy re-derivation under the env
        monkeypatch.setattr(runner, "_CACHE", None)
        cache = runner.default_cache()
        assert cache.directory == tmp_path / "env-cache"
        assert runner.default_cache() is cache  # created once, then reused

    def test_set_default_cache_installs_instance(self, tmp_path, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.records import ResultCache

        mine = ResultCache(directory=tmp_path)
        monkeypatch.setattr(runner, "_CACHE", mine)
        assert runner.default_cache() is mine


def utilization(**kwargs):
    """CPU utilization of W=10 C=2 P=1, the Table 1 search's probe."""
    return run_configuration(10, 1, clients=2, settings=FAST_SETTINGS,
                             **kwargs).system.cpu_utilization


class TestUtilizationFaults:
    def test_faults_thread_through_to_cache_key(self, tmp_path):
        from repro.experiments.records import ResultCache
        from repro.faults import DiskDegradation, FaultPlan

        plan = FaultPlan(seed=1, disks=(
            DiskDegradation(disk=-1, latency_factor=4.0),))
        cache = ResultCache(directory=tmp_path)
        healthy = utilization(cache=cache)
        degraded = utilization(faults=plan, cache=cache)
        assert 0.0 <= healthy <= 1.0 and 0.0 <= degraded <= 1.0
        # Healthy and faulted runs cache under distinct keys: the faulted
        # entry carries the plan fingerprint suffix.  (Each entry also
        # has a RunManifest sidecar; exclude those here.)
        entries = sorted(p.name for p in tmp_path.glob("*.json")
                         if not p.name.endswith(".manifest.json"))
        assert len(entries) == 2
        assert sum(f"-f{plan.fingerprint()}" in name for name in entries) == 1

    def test_faulted_utilization_reproducible(self, tmp_path):
        from repro.experiments.records import ResultCache
        from repro.faults import DiskDegradation, FaultPlan

        plan = FaultPlan(seed=1, disks=(
            DiskDegradation(disk=-1, latency_factor=4.0),))
        first = utilization(faults=plan,
                            cache=ResultCache(directory=tmp_path / "a"))
        second = utilization(faults=plan,
                             cache=ResultCache(directory=tmp_path / "b"))
        assert first == second
