"""Tests for repro.obs.snapshot: determinism, round-trip, reconstruction.

Uses the same synthetic telemetry helpers as the sweep-report tests for
unit-level coverage, plus real (fast-settings) runs for the cache- and
journal-reconstruction paths.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import PoolExecutor, run_sweep
from repro.experiments.records import ResultCache
from repro.experiments.resilience import SweepJournal
from repro.obs.snapshot import (
    POINT_METRICS,
    SNAPSHOT_VERSION,
    SnapshotError,
    SweepSnapshot,
    point_key,
    resolve_snapshot,
)
from tests.obs.test_sweep_report import fake_point


def fake_snapshot(warehouses=(10, 25)) -> SweepSnapshot:
    return SweepSnapshot.from_points(
        [fake_point(w) for w in warehouses])


class TestPointKey:
    def test_grid_coordinates_not_config_key(self):
        assert point_key("odb-2003", 10, 80, 4) == "odb-2003-w10-c80-p4"

    def test_unsafe_machine_names_slugged(self):
        key = point_key("xeon/l3=512KB", 10, 80, 4)
        assert "/" not in key and "=" not in key

    def test_cache_and_point_keys_share_one_pinned_slug(self):
        # Existing caches and journals are found by this spelling.
        assert point_key("xeon/l3=512KB", 10, 80, 4) == \
            "xeon_l3_512KB-w10-c80-p4"
        assert ResultCache.key_for("xeon/l3=512KB", 10, 80, 4, "abc") == \
            "xeon_l3_512KB-w10-c80-p4-abc"


class TestFromPoints:
    def test_points_keyed_by_grid_coordinates(self):
        snapshot = fake_snapshot()
        assert set(snapshot.points) == {"odb-2003-w10-c80-p1",
                                        "odb-2003-w25-c200-p1"}
        entry = snapshot.points["odb-2003-w10-c80-p1"]
        assert entry["warehouses"] == 10
        assert set(entry["metrics"]) == set(POINT_METRICS)

    def test_flame_calls_canonical_timings_in_annex(self):
        snapshot = fake_snapshot()
        names = {row["name"] for row in snapshot.flame}
        assert names == {"run", "des", "cpi-model"}
        assert all("wall_s" not in row for row in snapshot.flame)
        assert snapshot.annex["flame_timings"]["run"]["self_s"] >= 0

    def test_metrics_counters_merged(self):
        snapshot = fake_snapshot()
        assert snapshot.metrics["counters"]["cache.misses"] == 2.0
        assert snapshot.metrics["counters"]["runner.rounds"] == 4.0

    def test_cost_counters_stay_out_of_the_canonical_payload(self):
        # Whether a point reused a prewarm depends on what ran before it
        # in the same worker, so the two sweeps below are the same sweep.
        def with_reuse(point, reused):
            metrics = json.loads(json.dumps(point.metrics))
            metrics["counters"]["odb.prewarm.reused"] = reused
            return dataclasses.replace(point, metrics=metrics)

        cold = SweepSnapshot.from_points([with_reuse(fake_point(10), 0)])
        warm = SweepSnapshot.from_points([with_reuse(fake_point(10), 2)])
        assert "odb.prewarm.reused" not in warm.metrics["counters"]
        assert warm.metrics["counters"]["runner.rounds"] == 2.0
        assert cold.checksum() == warm.checksum()

    def test_provenance_collapses_single_values(self):
        snapshot = fake_snapshot()
        assert snapshot.provenance["git_rev"] == "abcdef0123456789"
        assert snapshot.provenance["seed"] == 1234

    def test_none_points_ignored(self):
        snapshot = SweepSnapshot.from_points([None, fake_point(10), None])
        assert len(snapshot.points) == 1


class TestDeterminism:
    def test_same_points_byte_identical(self):
        assert fake_snapshot().to_json() == fake_snapshot().to_json()

    def test_checksum_stable_and_annex_free(self):
        a, b = fake_snapshot(), fake_snapshot()
        assert a.checksum() == b.checksum()
        # Perturbing the annex must not move the canonical checksum.
        b.annex["flame_timings"]["run"] = {"self_s": 999.0}
        assert a.checksum() == b.checksum()

    def test_no_timestamps_anywhere(self):
        text = fake_snapshot().to_json()
        for needle in ("created", "timestamp", "_unix", "time.time"):
            assert needle not in text

    def test_canonical_json_sorted(self):
        snapshot = fake_snapshot()
        data = json.loads(snapshot.canonical_json())
        assert list(data) == sorted(data)


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        snapshot = fake_snapshot()
        path = snapshot.save(tmp_path / "sweep.snapshot.json")
        loaded = SweepSnapshot.load(path)
        assert loaded.checksum() == snapshot.checksum()
        assert loaded.to_json() == snapshot.to_json()

    def test_schema_version_enforced(self, tmp_path):
        data = fake_snapshot().to_dict()
        data["schema_version"] = SNAPSHOT_VERSION + 1
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SnapshotError) as error:
            SweepSnapshot.load(path)
        assert "schema_version" in str(error.value)

    def test_tampered_canonical_payload_fails_checksum(self, tmp_path):
        data = fake_snapshot().to_dict()
        key = next(iter(data["canonical"]["points"]))
        data["canonical"]["points"][key]["metrics"]["tps"] += 1.0
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SnapshotError) as error:
            SweepSnapshot.load(path)
        assert "checksum" in str(error.value)

    def test_wrong_kind_rejected(self):
        with pytest.raises(SnapshotError):
            SweepSnapshot.from_dict({"kind": "something-else"})

    def test_not_json_rejected(self):
        with pytest.raises(SnapshotError):
            SweepSnapshot.from_json("{torn")


class TestReconstruction:
    """Retro snapshots from the artifacts sweeps already persist."""

    @pytest.fixture(scope="class")
    def swept(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("snap")
        cache_dir = root / "cache"
        journal = SweepJournal(root / "sweep.jsonl")
        points = run_sweep([10, 25], 1, settings=FAST_SETTINGS, trace=True,
                           executor=PoolExecutor(1), cache_dir=cache_dir,
                           journal=journal)
        return root, cache_dir, journal, points

    def test_from_cache_dir_matches_live_results(self, swept):
        _root, cache_dir, _journal, points = swept
        live = SweepSnapshot.from_points(points)
        retro = SweepSnapshot.from_cache_dir(cache_dir)
        assert set(retro.points) == set(live.points)
        for key in retro.points:
            assert retro.points[key]["metrics"] == \
                live.points[key]["metrics"]

    def test_from_cache_dir_byte_identical_across_calls(self, swept):
        _root, cache_dir, _journal, _points = swept
        assert SweepSnapshot.from_cache_dir(cache_dir).to_json() == \
            SweepSnapshot.from_cache_dir(cache_dir).to_json()

    def test_from_journal_matches_cache_results(self, swept):
        _root, cache_dir, journal, _points = swept
        retro = SweepSnapshot.from_journal(journal.path, cache_dir)
        cached = SweepSnapshot.from_cache_dir(cache_dir)
        assert set(retro.points) == set(cached.points)
        for key in retro.points:
            assert retro.points[key]["metrics"] == \
                cached.points[key]["metrics"]

    def test_resolve_snapshot_dispatches_all_three(self, swept, tmp_path):
        root, cache_dir, journal, points = swept
        live = SweepSnapshot.from_points(points)
        path = live.save(tmp_path / "live.json")
        assert resolve_snapshot(path).checksum() == live.checksum()
        assert resolve_snapshot(cache_dir).points
        assert resolve_snapshot(journal.path, cache_dir).points

    def test_empty_cache_dir_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            SweepSnapshot.from_cache_dir(tmp_path)

    def test_missing_reference_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            resolve_snapshot(tmp_path / "nope.json")


class TestJournalManifests:
    """A journal's provenance comes from the cache its sweep wrote."""

    def test_journal_rebuilt_under_another_cache_keeps_its_provenance(
            self, tmp_path, monkeypatch):
        sweep_cache, other_cache = tmp_path / "sweep", tmp_path / "other"
        journal = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(sweep_cache))
        monkeypatch.setattr(runner, "_CACHE", None)
        assert main(["sweep", "-p", "1", "--grid", "10,25", "--fast",
                     "--jobs", "1", "--journal", str(journal)]) == 0
        manifests = sorted(sweep_cache.glob("*.manifest.json"))
        assert len(manifests) == 2
        own = [json.loads(path.read_text()) for path in manifests]
        # Another cache holds the same keys from unrelated runs.
        other_cache.mkdir()
        for path, data in zip(manifests, own):
            (other_cache / path.name).write_text(json.dumps(
                {**data, "git_rev": "f" * 40, "worker_count": 7,
                 "workload_fingerprint": None}))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(other_cache))
        monkeypatch.setattr(runner, "_CACHE", None)
        retro = SweepSnapshot.from_journal(journal, sweep_cache)
        provenance = retro.provenance
        assert provenance["git_rev"] == own[0]["git_rev"] != "f" * 40
        assert provenance["fleet"]["worker_count"] == max(
            data["worker_count"] for data in own) != 7
        assert provenance["workload_fingerprint"] == \
            own[0]["workload_fingerprint"] is not None
        # Without the sweep's cache a journal still yields its metrics.
        bare = SweepSnapshot.from_journal(journal)
        assert bare.points == retro.points
        assert bare.provenance["git_rev"] is None


class TestTelemetrySweepJournal:
    """A traced ``run_sweep``'s journal resume path (the --snapshot +
    --resume combination)."""

    def test_resumed_points_carry_cached_manifests(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        cache_dir = tmp_path / "cache"
        first = run_sweep([10], 1, settings=FAST_SETTINGS, trace=True,
                          executor=PoolExecutor(1), cache_dir=cache_dir,
                          journal=journal)
        assert first[0].trace  # fresh point simulated and traced
        resumed = run_sweep([10], 1, settings=FAST_SETTINGS, trace=True,
                            executor=PoolExecutor(1), cache_dir=cache_dir,
                            journal=journal)
        assert resumed[0].trace == {}  # journaled: nothing re-ran
        assert resumed[0].manifest is not None
        assert resumed[0].result.to_dict() == first[0].result.to_dict()
        # One line per point: the resume did not duplicate the journal.
        assert len(journal.path.read_text().splitlines()) == 1
