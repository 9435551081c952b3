"""One failure matrix, every executor: the sweep driver's contract.

The same seeded chaos (a poisoned point, a killed worker, a hang past
the point deadline) runs in-process, on the local pool and on stdio
fabric workers; each must return results bit-identical to the serial
oracle, journal every point exactly once and retry the same points.
Also here: deadlines measure running points only, every journaled
sweep holds the journal's owner lock, and an untraced fabric sweep
ships no telemetry it would throw away.
"""

import json
import time

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import (
    PoolExecutor,
    RunSpec,
    SupervisorPolicy,
    execute_point,
    run_points,
    run_sweep,
)
from repro.experiments.resilience import JournalOwnershipError, SweepJournal
from repro.experiments.runner import sweep
from repro.fabric import FabricChaosPolicy, FabricCoordinator, FabricPolicy
from repro.fabric.transports import StdioTransport

PROCESSORS = 1
GRID = (10, 25, 40)


def canonical(results):
    """Byte-exact serialization, the determinism contract's currency."""
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def journal_keys(path):
    """Config keys in journal append order (duplicates included)."""
    return [json.loads(line)["key"]
            for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture(scope="module")
def serial_reference():
    return canonical(sweep(GRID, PROCESSORS, settings=FAST_SETTINGS,
                           use_cache=False))


def three_fault_chaos(keys, delay_s):
    """The first seed whose attempt-0 draws give the three grid points
    one each of poison, kill and hang."""
    for seed in range(1000):
        chaos = FabricChaosPolicy(seed=seed, kill=1 / 3, hang=1 / 3,
                                  poison=1 / 3, attempts=1,
                                  delay_s=delay_s)
        if {chaos.action(key, 0) for key in keys} == {"poison", "kill",
                                                      "hang"}:
            return chaos
    raise AssertionError("no seed draws one of each fault")


class TestFailureMatrixConformance:
    """Poison, kill and hang past the deadline, on every executor."""

    @pytest.mark.parametrize("where", ["in-process", "pool", "fabric"])
    def test_same_chaos_same_contract(self, where, serial_reference,
                                      tmp_path, monkeypatch):
        keys = [RunSpec(warehouses=w, processors=PROCESSORS,
                        settings=FAST_SETTINGS).key() for w in GRID]
        chaos = three_fault_chaos(keys, delay_s=5.0)
        policy = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                                  max_backoff_s=0.05, point_timeout_s=4.0)
        if where == "fabric":
            executor = FabricCoordinator(
                fabric=FabricPolicy(workers=3, heartbeat_s=0.1,
                                    heartbeat_timeout_s=1.5),
                chaos=chaos)
        else:
            if where == "in-process":
                monkeypatch.setenv("REPRO_SERIAL", "1")
            executor = PoolExecutor(jobs=1, chaos=chaos)
        journal = tmp_path / "journal.jsonl"
        points = run_sweep(GRID, PROCESSORS, settings=FAST_SETTINGS,
                           executor=executor, policy=policy,
                           cache_dir=tmp_path / "cache", journal=journal)
        assert canonical(p.result for p in points) == serial_reference
        assert sorted(journal_keys(journal)) == sorted(keys)
        retries = sorted((e["key"], e["attempt"]) for e in executor.events
                         if e["event"] == "point-retry")
        assert retries == sorted((key, 1) for key in keys)


class TestDeadlinesMeasureRunningPoints:
    def test_queued_points_never_time_out(self, tmp_path):
        """Six healthy points on one pool worker with a deadline of three
        point-times: a point's budget starts at dispatch, so queueing
        behind the others costs nothing."""
        began = time.perf_counter()
        execute_point(RunSpec(warehouses=70, processors=PROCESSORS,
                              settings=FAST_SETTINGS), None, False)
        one_point_s = time.perf_counter() - began
        policy = SupervisorPolicy(point_timeout_s=max(1.0, 3 * one_point_s))
        specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                         settings=FAST_SETTINGS)
                 for w in (10, 20, 30, 40, 50, 60)]
        pool = PoolExecutor(jobs=1)
        points = run_points(specs, pool, policy=policy,
                            cache_dir=tmp_path / "cache")
        assert all(point is not None for point in points)
        kinds = [e["event"] for e in pool.events]
        assert kinds.count("point-timeout") == 0
        assert "point-retry" not in kinds


class TestJournalOwnership:
    def test_second_live_owner_is_refused_on_the_pool(self, tmp_path):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.acquire(owner="live-sweep")
        try:
            with pytest.raises(JournalOwnershipError):
                run_sweep((10,), PROCESSORS, settings=FAST_SETTINGS,
                          executor=PoolExecutor(jobs=2),
                          cache_dir=tmp_path / "cache",
                          journal=journal.path)
            assert not journal.path.exists()  # nothing was appended
        finally:
            journal.release()

    def test_cli_pool_sweep_exits_with_the_owner(self, tmp_path):
        from repro.cli import main

        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.acquire(owner="live-sweep")
        try:
            with pytest.raises(SystemExit) as error:
                main(["sweep", "--fast", "-p", "1", "--grid", "10",
                      "--jobs", "2", "--journal", str(journal.path),
                      "--resume"])
            message = str(error.value)
            assert "owned by" in message and "live-sweep" in message
            assert "\n" not in message
        finally:
            journal.release()

    def test_cli_resume_breaks_a_dead_owners_lock(self, tmp_path,
                                                  monkeypatch):
        import subprocess
        import sys

        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = SweepJournal(tmp_path / "journal.jsonl")
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=30.0)
        journal.lock_path.write_text(json.dumps(
            {"owner": "crashed-sweep", "pid": dead.pid}) + "\n")
        code = main(["sweep", "--fast", "-p", "1", "--grid", "10",
                     "--jobs", "2", "--journal", str(journal.path),
                     "--resume"])
        assert code == 0
        assert not journal.lock_path.exists()  # broken, then released
        assert len(journal_keys(journal.path)) == 1

    def test_snapshot_fabric_sweep_resumes_from_its_journal(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.obs.snapshot import SweepSnapshot

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = tmp_path / "journal.jsonl"
        base = ["sweep", "--fast", "-p", "1", "--workers", "2",
                "--journal", str(journal)]
        assert main(base + ["--grid", "10",
                            "--snapshot", str(tmp_path / "a.json")]) == 0
        assert main(base + ["--grid", "10,25",
                            "--snapshot", str(tmp_path / "b.json")]) == 0
        assert "(1 point(s) already complete)" in capsys.readouterr().out
        keys = journal_keys(journal)
        assert len(keys) == 2 and len(set(keys)) == 2
        assert len(SweepSnapshot.load(tmp_path / "b.json").points) == 2


class TestUntracedFabric:
    def test_untraced_sweep_ships_no_trace(self, tmp_path):
        grid = (10, 25)
        frames = []

        def recording(transport):
            poll = transport.poll

            def wrapped():
                items = poll()
                frames.extend(item for item in items
                              if isinstance(item, dict)
                              and item.get("type") == "result")
                return items

            transport.poll = wrapped
            return transport

        coordinator = FabricCoordinator(
            transports=[recording(StdioTransport.launch(
                f"worker-{i}", heartbeat_s=0.1)) for i in range(2)],
            fabric=FabricPolicy(workers=2, heartbeat_s=0.1,
                                heartbeat_timeout_s=1.5))
        points = run_points(
            [RunSpec(warehouses=w, processors=PROCESSORS,
                     settings=FAST_SETTINGS) for w in grid],
            coordinator, use_cache=False)
        assert (canonical(p.result for p in points)
                == canonical(sweep(grid, PROCESSORS, settings=FAST_SETTINGS,
                                   use_cache=False)))
        assert len(frames) >= len(grid)
        assert all("trace" not in f and "metrics" not in f for f in frames)
        for point in points:
            assert point.trace is None and point.metrics is None
            assert point.worker.startswith("worker-")
            assert point.manifest.worker_id == point.worker
            assert point.manifest.worker_host
