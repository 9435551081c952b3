"""Harness resilience: convergence guards, journal, cache safety."""

import dataclasses
import json
import os
from types import SimpleNamespace

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import run_sweep
from repro.experiments.records import (
    SCHEMA_VERSION,
    ConfigResult,
    ResultCache,
    SchemaMismatchError,
    payload_checksum,
)
from repro.experiments.resilience import (
    ConvergenceError,
    ConvergenceGuard,
    SweepJournal,
)
from repro.experiments.runner import (
    configuration_key,
    run_configuration,
)
from repro.faults import DiskDegradation, FaultPlan
from tests.experiments.serial_oracle import serial_results


@pytest.fixture(scope="module")
def result():
    return run_configuration(10, 1, clients=2, settings=FAST_SETTINGS,
                             use_cache=False)


class TestConvergenceGuard:
    def test_convergent_trajectory_passes_through(self):
        guard = ConvergenceGuard()
        trajectory = [(3.0, 2.6), (2.7, 2.4), (2.68, 2.39), (2.679, 2.389)]
        for user, os_ in trajectory:
            assert guard.admit(user, os_) == (user, os_)
        assert guard.damped_rounds == 0

    def test_nan_raises(self):
        guard = ConvergenceGuard(context="W=10 P=1")
        with pytest.raises(ConvergenceError) as error:
            guard.admit(float("nan"), 2.0)
        assert "W=10 P=1" in str(error.value)

    def test_infinity_and_nonpositive_raise(self):
        with pytest.raises(ConvergenceError):
            ConvergenceGuard().admit(float("inf"), 2.0)
        with pytest.raises(ConvergenceError):
            ConvergenceGuard().admit(-1.0, 2.0)

    def test_growing_oscillation_is_damped(self):
        guard = ConvergenceGuard()
        guard.admit(2.0, 2.0)
        guard.admit(2.2, 2.0)  # delta 0.1
        # Raw next iterate swings 0.4 away — worse than the last delta.
        user, os_ = guard.admit(3.0, 2.0)
        assert guard.damped_rounds == 1
        assert user == pytest.approx(2.6)  # halfway back toward 2.2
        assert os_ == pytest.approx(2.0)

    def test_persistent_divergence_raises(self):
        guard = ConvergenceGuard()
        value = 2.0
        guard.admit(value, 2.0)
        with pytest.raises(ConvergenceError) as error:
            step = 0.1
            for _ in range(20):
                value += step
                step *= 4  # every swing larger than the last
                guard.admit(value, 2.0)
        assert "damped rounds" in str(error.value)
        assert error.value.history  # full trajectory preserved


class TestRunnerGuards:
    def test_nan_cpi_solution_raises_convergence_error(self, monkeypatch):
        import repro.experiments.runner as runner_module

        monkeypatch.setattr(
            runner_module, "solve_cpi",
            lambda rates, machine, processors: SimpleNamespace(
                user_cpi=float("nan"), os_cpi=float("nan")))
        with pytest.raises(ConvergenceError):
            run_configuration(10, 1, clients=2, settings=FAST_SETTINGS,
                              use_cache=False)

    def test_fault_plan_changes_cache_key(self):
        from repro.hw.machine import XEON_MP_QUAD

        plan = FaultPlan(disks=(DiskDegradation(latency_factor=2.0),))
        healthy = configuration_key(XEON_MP_QUAD, 10, 2, 1, FAST_SETTINGS)
        faulted = configuration_key(XEON_MP_QUAD, 10, 2, 1, FAST_SETTINGS,
                                    faults=plan)
        assert healthy != faulted
        assert faulted.endswith(f"-f{plan.fingerprint()}")


class TestSweepJournal:
    def test_roundtrip(self, tmp_path, result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        assert journal.load() == {"key-a": result}

    def test_torn_last_line_skipped(self, tmp_path, result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "key-b", "schema_ver')  # the kill case
        loaded = journal.load()
        assert set(loaded) == {"key-a"}
        assert journal.skipped == 1

    def test_stale_schema_entry_skipped(self, tmp_path, result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        payload = result.to_dict()
        entry = {"key": "old", "schema_version": SCHEMA_VERSION - 1,
                 "checksum": payload_checksum(payload), "result": payload}
        journal.path.write_text(json.dumps(entry) + "\n")
        assert journal.load() == {}
        assert journal.skipped == 1

    def test_checksum_mismatch_skipped(self, tmp_path, result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        text = journal.path.read_text()
        journal.path.write_text(text.replace('"tps_ironlaw":', '"tps_ironlaw_":'))
        assert journal.load() == {}
        assert journal.skipped == 1

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path,
                                                   monkeypatch):
        import repro.experiments.parallel as parallel_module

        grid = (10, 25, 50)

        def clients_fn(w, p):
            return 2

        def sweep(journal):
            return [point.result for point in run_sweep(
                grid, 1, settings=FAST_SETTINGS, clients_fn=clients_fn,
                use_cache=False, journal=journal)]

        uninterrupted = serial_results(grid, 1, clients=2)

        calls = {"n": 0}
        original = parallel_module.run_with_manifest

        def killed_mid_grid(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt("simulated kill")
            return original(*args, **kwargs)

        journal = SweepJournal(tmp_path / "sweep.jsonl")
        monkeypatch.setattr(parallel_module, "run_with_manifest",
                            killed_mid_grid)
        with pytest.raises(KeyboardInterrupt):
            sweep(journal)
        monkeypatch.setattr(parallel_module, "run_with_manifest", original)

        # Two points survived the kill; resume recomputes only the third.
        assert len(journal.load()) == 2
        resumed = sweep(journal)
        assert resumed == uninterrupted
        assert len(journal.load()) == 3


class TestCrashSafeCache:
    def test_store_is_atomic_no_temp_residue(self, tmp_path, result):
        cache = ResultCache(directory=tmp_path)
        cache.store("k", result)
        assert cache.load("k") == result
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob(".*.tmp"))

    def test_truncated_entry_quarantined(self, tmp_path, result):
        cache = ResultCache(directory=tmp_path)
        cache.store("k", result)
        path = tmp_path / "k.json"
        path.write_text(path.read_text()[:40])  # simulated torn write
        assert cache.load("k") is None
        assert cache.quarantined == 1
        assert not path.exists()
        assert (tmp_path / "quarantine" / "k.json").exists()

    def test_checksum_mismatch_quarantined(self, tmp_path, result):
        cache = ResultCache(directory=tmp_path)
        cache.store("k", result)
        path = tmp_path / "k.json"
        data = json.loads(path.read_text())
        data["result"]["tps_ironlaw"] += 1.0  # silent bit-rot
        path.write_text(json.dumps(data))
        assert cache.load("k") is None
        assert (tmp_path / "quarantine" / "k.json").exists()

    def test_stale_schema_deleted_not_quarantined(self, tmp_path, result):
        cache = ResultCache(directory=tmp_path)
        path = tmp_path / "k.json"
        tmp_path.mkdir(exist_ok=True)
        # Pre-envelope format (the seed repo's layout): clean invalidation.
        path.write_text(json.dumps(result.to_dict()))
        assert cache.load("k") is None
        assert not path.exists()
        assert cache.quarantined == 0
        assert not (tmp_path / "quarantine").exists()

    def test_no_cache_env_disables(self, tmp_path, result, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(directory=tmp_path)
        cache.store("k", result)
        assert not list(tmp_path.glob("*.json"))
        assert cache.load("k") is None

    def test_schema_version_serialized_and_enforced(self, result):
        data = result.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        stale = dict(data, schema_version=SCHEMA_VERSION - 1)
        with pytest.raises(SchemaMismatchError):
            ConfigResult.from_dict(stale)
        missing = {k: v for k, v in data.items() if k != "schema_version"}
        with pytest.raises(SchemaMismatchError):
            ConfigResult.from_dict(missing)


class TestJournalTornLineRecovery:
    """Reopen must repair a torn tail: quarantine + atomic compaction."""

    def test_torn_line_moved_to_quarantine_sidecar(self, tmp_path, result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        torn = '{"key": "key-b", "schema_ver'
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(torn)  # the kill case: no trailing newline
        loaded = journal.load()
        assert set(loaded) == {"key-a"}
        assert journal.skipped == 1
        assert journal.quarantined == 1
        # Bytes preserved for inspection, journal compacted to valid
        # lines only (ending on a clean newline).
        assert torn in journal.quarantine_path.read_text()
        text = journal.path.read_text()
        assert torn not in text
        assert text.endswith("\n")

    def test_append_after_torn_line_cannot_fuse_records(self, tmp_path,
                                                        result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "key-b", "schema_ver')
        # The resume flow: load (repairs the tail), then keep recording.
        journal.load()
        journal.record("key-c", result)
        reloaded = journal.load()
        assert set(reloaded) == {"key-a", "key-c"}
        assert journal.skipped == 0

    def test_quarantine_counts_into_metrics_stream(self, tmp_path, result):
        from repro.obs import metrics as metrics_module

        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"key": "key-b", "schema_ver')
        stream = tmp_path / "events.jsonl"
        registry = metrics_module.enable_metrics(stream_path=str(stream))
        try:
            journal.load()
        finally:
            metrics_module.disable_metrics()
        assert registry.counters["journal.quarantined"] == 2.0
        records = [json.loads(line) for line in
                   stream.read_text().splitlines()]
        quarantines = [r for r in records
                       if r["event"] == "journal-quarantine"]
        assert [r["line"] for r in quarantines] == [2, 3]

    def test_clean_journal_is_left_untouched(self, tmp_path, result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        before = journal.path.read_text()
        journal.load()
        assert journal.path.read_text() == before
        assert not journal.quarantine_path.exists()


class TestJournalCrashConsistency:
    """Truncated append then recovery, and the fsync-before-rename
    ordering that makes the repair itself crash-safe."""

    def test_truncated_append_recovers_then_keeps_recording(
            self, tmp_path, result):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        journal.record("key-b", result)
        # Simulate a crash that truncated the second append mid-write:
        # the first record survives intact, the second is torn.
        lines = journal.path.read_bytes().splitlines(keepends=True)
        torn = lines[1][: len(lines[1]) // 2]
        journal.path.write_bytes(lines[0] + torn)
        recovered = SweepJournal(journal.path)
        assert set(recovered.load()) == {"key-a"}
        assert recovered.quarantined == 1
        # The resume flow keeps appending to the compacted journal; the
        # re-run of the torn point lands exactly once.
        recovered.record("key-b", result)
        assert set(recovered.load()) == {"key-a", "key-b"}
        assert torn.decode() in recovered.quarantine_path.read_text()

    def test_compaction_fsyncs_data_before_rename(self, tmp_path, result,
                                                  monkeypatch):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "key-b", "schema_ver')
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            calls.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        journal.load()
        # Sidecar and compacted-tmp fsyncs precede the rename; the
        # directory fsync follows it, so the repaired journal is durably
        # *named* before any later append trusts its clean tail.
        assert calls.count("replace") == 1
        rename_at = calls.index("replace")
        assert calls[:rename_at].count("fsync") >= 2
        assert "fsync" in calls[rename_at + 1:]

    def test_first_append_syncs_the_directory_entry(self, tmp_path, result,
                                                    monkeypatch):
        from repro.experiments import resilience as resilience_module

        synced = []
        monkeypatch.setattr(resilience_module, "_fsync_dir", synced.append)
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("key-a", result)
        assert synced == [tmp_path]
        # Subsequent appends ride on the existing entry: data fsync only.
        journal.record("key-b", result)
        assert synced == [tmp_path]


class TestCacheQuarantineSurfacing:
    """A corrupt cache entry must surface in sweep telemetry/reports."""

    def _spec_and_cache(self, tmp_path):
        from repro.experiments.parallel import RunSpec

        spec = RunSpec(warehouses=10, processors=1, settings=FAST_SETTINGS)
        return spec, ResultCache(tmp_path / "cache")

    def test_quarantine_event_names_the_offending_key(self, tmp_path,
                                                      result):
        from repro.obs import metrics as metrics_module

        spec, cache = self._spec_and_cache(tmp_path)
        cache.store(spec.key(), result)
        (cache.directory / f"{spec.key()}.json").write_text("{corrupt")
        stream = tmp_path / "events.jsonl"
        registry = metrics_module.enable_metrics(stream_path=str(stream))
        try:
            assert cache.load(spec.key()) is None
        finally:
            metrics_module.disable_metrics()
        assert registry.counters["cache.quarantined"] == 1.0
        records = [json.loads(line) for line in
                   stream.read_text().splitlines()]
        quarantines = [r for r in records if r["event"] == "cache-quarantine"]
        assert len(quarantines) == 1
        assert quarantines[0]["key"] == spec.key()

    def test_corrupt_entry_surfaces_in_sweep_report(self, tmp_path):
        from repro.experiments.parallel import (PoolExecutor, RunSpec,
                                                run_sweep)
        from repro.obs.sweep_report import build_sweep_report

        cache_dir = tmp_path / "cache"
        grid = (10,)
        # Populate the cache, then corrupt the entry on disk.
        run_sweep(grid, 1, settings=FAST_SETTINGS, trace=True,
                  executor=PoolExecutor(1), cache_dir=cache_dir)
        spec = RunSpec(warehouses=10, processors=1, settings=FAST_SETTINGS)
        (cache_dir / f"{spec.key()}.json").write_text("{corrupt")
        points = run_sweep(grid, 1, settings=FAST_SETTINGS, trace=True,
                           executor=PoolExecutor(1), cache_dir=cache_dir)
        text = build_sweep_report(points).to_markdown()
        assert "cache.quarantined" in text  # no longer silent


class TestJournalSplitBrain:
    """Two coordinators on one journal: the ownership lock contract."""

    def test_second_live_coordinator_is_refused(self, tmp_path):
        from repro.experiments.resilience import JournalOwnershipError

        path = tmp_path / "sweep.jsonl"
        first = SweepJournal(path)
        assert first.acquire("coord-a") == "coord-a"
        second = SweepJournal(path)
        with pytest.raises(JournalOwnershipError) as error:
            second.acquire("coord-b")
        assert "coord-a" in str(error.value)

    def test_reacquire_is_idempotent(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.acquire("coord-a")
        assert journal.acquire("coord-a") == "coord-a"

    def test_release_allows_takeover(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = SweepJournal(path)
        first.acquire("coord-a")
        first.release()
        assert SweepJournal(path).acquire("coord-b") == "coord-b"

    def test_dead_holders_lock_is_broken(self, tmp_path):
        import subprocess
        import sys

        # A real process that acquired the lock and crashed without
        # releasing: its pid is dead, so takeover must succeed.
        path = tmp_path / "sweep.jsonl"
        code = (
            "import sys; sys.path.insert(0, sys.argv[2])\n"
            "from repro.experiments.resilience import SweepJournal\n"
            "SweepJournal(sys.argv[1]).acquire('coord-crashed')\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        subprocess.run([sys.executable, "-c", code, str(path), src],
                       check=True)
        assert (tmp_path / "sweep.jsonl.lock").exists()
        journal = SweepJournal(path)
        assert journal.acquire("coord-b") == "coord-b"

    def test_live_holder_in_another_process_is_refused(self, tmp_path):
        import subprocess
        import sys

        # The second coordinator runs in a real subprocess while we (a
        # live pid) hold the lock; it must exit through
        # JournalOwnershipError.
        path = tmp_path / "sweep.jsonl"
        SweepJournal(path).acquire("coord-a")
        code = (
            "import sys; sys.path.insert(0, sys.argv[2])\n"
            "from repro.experiments.resilience import (\n"
            "    JournalOwnershipError, SweepJournal)\n"
            "try:\n"
            "    SweepJournal(sys.argv[1]).acquire('coord-b')\n"
            "except JournalOwnershipError:\n"
            "    sys.exit(42)\n"
            "sys.exit(0)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.run([sys.executable, "-c", code, str(path), src])
        assert proc.returncode == 42

    def test_record_after_lock_stolen_raises(self, tmp_path, result):
        from repro.experiments.resilience import JournalOwnershipError

        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.acquire("coord-a")
        journal.record("k1", result)
        # Another coordinator force-breaks the lock (split brain): our
        # next append must refuse instead of interleaving.
        journal.lock_path.write_text(
            json.dumps({"owner": "coord-b", "pid": os.getpid()}) + "\n")
        with pytest.raises(JournalOwnershipError):
            journal.record("k2", result)
        assert list(SweepJournal(path).load()) == ["k1"]

    def test_in_process_sweep_refuses_a_journal_a_live_owner_holds(
            self, tmp_path):
        from repro.experiments.resilience import JournalOwnershipError

        path = tmp_path / "sweep.jsonl"
        SweepJournal(path).acquire("coord-a")
        with pytest.raises(JournalOwnershipError, match="coord-a"):
            run_sweep((10,), 1, settings=FAST_SETTINGS, use_cache=False,
                      journal=path)
        # Refused before the first point: nothing was appended.
        assert not path.exists() or path.read_text() == ""
        assert json.loads(path.with_name("sweep.jsonl.lock").read_text()
                          )["owner"] == "coord-a"

    def test_caller_held_journal_is_reused_not_refused(self, tmp_path):
        """A caller that holds the journal under its own token runs a
        sweep on it: the driver reuses the token, appends, and leaves
        the lock for the caller to release."""
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.acquire("coordinator-1")
        run_sweep((10,), 1, settings=FAST_SETTINGS, use_cache=False,
                      journal=journal)
        assert len(path.read_text().splitlines()) == 1
        assert journal.owner == "coordinator-1"
        assert json.loads(journal.lock_path.read_text()
                          )["owner"] == "coordinator-1"
        journal.release()
        assert not journal.lock_path.exists()

    def test_unlocked_journals_still_append(self, tmp_path, result):
        # Locking is opt-in: the single-coordinator path is unchanged.
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("k1", result)
        assert "k1" in journal.load()


class TestJournalDuplicateSuppression:
    """record() is idempotent per (key, payload) — exactly-once appends."""

    def test_identical_rerecord_is_suppressed(self, tmp_path, result):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.record("k1", result)
        journal.record("k1", result)
        assert len(path.read_text().splitlines()) == 1

    def test_changed_payload_is_appended(self, tmp_path, result):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.record("k1", result)
        changed = dataclasses.replace(
            result, fixed_point_rounds=result.fixed_point_rounds + 1)
        journal.record("k1", changed)
        assert len(path.read_text().splitlines()) == 2
        # load() keeps the newest record for the key.
        reloaded = SweepJournal(path).load()
        assert reloaded["k1"].fixed_point_rounds == \
            result.fixed_point_rounds + 1

    def test_load_primes_suppression_across_instances(self, tmp_path,
                                                      result):
        path = tmp_path / "sweep.jsonl"
        SweepJournal(path).record("k1", result)
        resumed = SweepJournal(path)
        resumed.load()
        resumed.record("k1", result)  # resumed sweep re-completes k1
        assert len(path.read_text().splitlines()) == 1

    def test_duplicate_skips_counted_in_metrics(self, tmp_path, result):
        from repro.obs import metrics as obs_metrics

        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("k1", result)
        registry = obs_metrics.enable_metrics(obs_metrics.MetricsRegistry())
        try:
            journal.record("k1", result)
        finally:
            obs_metrics.disable_metrics()
        assert registry.counters.get("journal.duplicate_skips") == 1
