"""Tests for RunManifest: round-trips, persistence, runner integration."""

import json

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.records import ResultCache
from repro.experiments.runner import run_with_manifest, settings_fingerprint
from repro.obs.manifest import MANIFEST_VERSION, RunManifest, git_revision


def sample_manifest(**overrides) -> RunManifest:
    fields = dict(
        config_key="xeon-mp-quad_w50_c8_p2_s2a2454887bd6",
        machine="xeon-mp-quad",
        warehouses=50,
        clients=8,
        processors=2,
        seed=1,
        settings_fingerprint="2a2454887bd6",
        wall_time_s=1.25,
        cpu_time_s=1.0,
        fixed_point_rounds=3,
        created_unix=1700000000.0,
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRoundTrip:
    def test_dict_round_trip(self):
        manifest = sample_manifest()
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_emit_parse_reemit_is_stable(self):
        manifest = sample_manifest()
        first = manifest.to_json()
        second = RunManifest.from_json(first).to_json()
        assert first == second

    def test_json_keys_sorted(self):
        payload = json.loads(sample_manifest().to_json())
        assert list(payload) == sorted(payload)

    def test_version_mismatch_rejected(self):
        data = sample_manifest().to_dict()
        data["manifest_version"] = MANIFEST_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            RunManifest.from_dict(data)

    def test_unknown_keys_ignored(self):
        data = sample_manifest().to_dict()
        data["future_field"] = "whatever"
        assert RunManifest.from_dict(data) == sample_manifest()
        # Manifests written before the event-queue choice was removed
        # carry the field that recorded it.
        data = sample_manifest().to_dict()
        data["scheduler"] = "heap"
        assert RunManifest.from_dict(data) == sample_manifest()

    def test_save_load(self, tmp_path):
        manifest = sample_manifest()
        path = manifest.save(tmp_path / "deep" / "m.json")
        assert RunManifest.load(path) == manifest


class TestGitRevision:
    def test_shape(self):
        rev = git_revision()
        assert rev == "unknown" or (
            len(rev) == 40 and all(c in "0123456789abcdef" for c in rev))

    def test_unknown_outside_a_checkout(self, tmp_path):
        git_revision.cache_clear()
        try:
            assert git_revision(str(tmp_path)) == "unknown"
        finally:
            git_revision.cache_clear()


class TestRunnerIntegration:
    def test_manifest_persisted_beside_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        result, manifest = run_with_manifest(10, 1, settings=FAST_SETTINGS,
                                             use_cache=True, cache=cache)
        assert manifest is not None
        key = cache.key_for(result.machine, result.warehouses,
                            result.clients, result.processors,
                            settings_fingerprint(FAST_SETTINGS))
        path = cache.manifest_path(key)
        assert path.exists()
        assert RunManifest.load(path) == manifest
        assert manifest.config_key == key
        assert manifest.warehouses == 10
        assert manifest.processors == 1
        assert manifest.fixed_point_rounds >= 1
        assert manifest.wall_time_s > 0
        assert manifest.tracing_enabled is False

    def test_cache_hit_reloads_stored_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        _result, stored = run_with_manifest(10, 1, settings=FAST_SETTINGS,
                                            use_cache=True, cache=cache)
        _result, reloaded = run_with_manifest(10, 1, settings=FAST_SETTINGS,
                                              use_cache=True, cache=cache)
        assert reloaded == stored

    def test_manifest_never_blocks_a_run(self, tmp_path):
        # A cache with manifests disabled (enabled=False) still runs.
        cache = ResultCache(tmp_path)
        cache.enabled = False
        result, manifest = run_with_manifest(10, 1, settings=FAST_SETTINGS,
                                             use_cache=False, cache=cache)
        assert result.system.tps > 0
        assert manifest is not None

