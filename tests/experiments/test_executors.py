"""One failure matrix, in-process and on the pool: the driver's contract.

The same seeded chaos (a poisoned point, a killed worker, a hang past
the point deadline) runs in-process and on the local pool; each must
return results bit-identical to the serial oracle, journal every point
exactly once and retry the same points.  Also here: deadlines measure
running points only, and a pooled sweep is refused a journal that
another process holds (the journal's ``flock``), while an old owner
record in the lock sidecar blocks nothing.
"""

import json
import os
import time

import pytest

from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import (
    ChaosPolicy,
    PoolExecutor,
    RunSpec,
    SupervisorPolicy,
    execute_point,
    run_points,
    run_sweep,
)
from repro.experiments.resilience import JournalOwnershipError, SweepJournal
from tests.experiments.journal_holder import held_elsewhere
from tests.experiments.serial_oracle import canonical, serial_results

PROCESSORS = 1
GRID = (10, 25, 40)


def journal_keys(path):
    """Config keys in journal append order (duplicates included)."""
    return [json.loads(line)["key"]
            for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture(scope="module")
def serial_reference():
    return canonical(serial_results(GRID, PROCESSORS))


def three_fault_chaos(keys, delay_s):
    """The first seed whose attempt-0 draws give the three grid points
    one each of poison, kill and hang."""
    for seed in range(1000):
        chaos = ChaosPolicy(seed=seed, kill=1 / 3, hang=1 / 3,
                            poison=1 / 3, attempts=1, delay_s=delay_s)
        if {chaos.action(key, 0) for key in keys} == {"poison", "kill",
                                                      "hang"}:
            return chaos
    raise AssertionError("no seed draws one of each fault")


class TestFailureMatrixConformance:
    """Poison, kill and hang past the deadline, in-process and pooled."""

    @pytest.mark.parametrize("where", ["in-process", "pool"])
    def test_same_chaos_same_contract(self, where, serial_reference,
                                      tmp_path, monkeypatch):
        keys = [RunSpec(warehouses=w, processors=PROCESSORS,
                        settings=FAST_SETTINGS).key() for w in GRID]
        chaos = three_fault_chaos(keys, delay_s=5.0)
        policy = SupervisorPolicy(max_retries=3, point_timeout_s=4.0)
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
        # One worker runs one point at a time, so the whole degradation
        # timeline (less the timing-dependent straggler flags) is fixed.
        fault = {chaos.action(key, 0): key for key in keys}
        timeline = [(e["event"], e.get("key"), e.get("attempt"))
                    for e in executor.events
                    if e["event"] != "point-straggling"]
        if where == "in-process":
            assert timeline == [("point-retry", key, 1) for key in keys]
        else:
            assert timeline == [
                ("point-timeout", fault["hang"], 0),
                ("pool-rebuild", None, None),
                ("point-retry", fault["hang"], 1),
                ("point-retry", fault["poison"], 1),
                ("pool-rebuild", None, None),
                ("point-retry", fault["kill"], 1),
            ]


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
        path = tmp_path / "journal.jsonl"
        with held_elsewhere(path):
            with pytest.raises(JournalOwnershipError):
                run_sweep((10,), PROCESSORS, settings=FAST_SETTINGS,
                          executor=PoolExecutor(jobs=2),
                          cache_dir=tmp_path / "cache", journal=path)
        assert not path.exists()  # nothing was appended

    def test_cli_pool_sweep_exits_with_the_owner(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "journal.jsonl"
        with held_elsewhere(path):
            with pytest.raises(SystemExit) as error:
                main(["sweep", "--fast", "-p", "1", "--grid", "10",
                      "--jobs", "2", "--journal", str(path), "--resume"])
        message = str(error.value)
        assert "owned by" in message and str(path) in message
        assert "\n" not in message

    def test_cli_resume_ignores_an_old_owner_record(self, tmp_path,
                                                    monkeypatch):
        """A sidecar naming a live process that holds no lock (here the
        test runner's parent) does not stop a pooled resume."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.lock_path.write_text(json.dumps(
            {"owner": "crashed-sweep", "pid": os.getppid()}) + "\n")
        code = main(["sweep", "--fast", "-p", "1", "--grid", "10",
                     "--jobs", "2", "--journal", str(journal.path),
                     "--resume"])
        assert code == 0
        assert len(journal_keys(journal.path)) == 1

    def test_snapshot_pool_sweep_resumes_from_its_journal(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.obs.snapshot import SweepSnapshot

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = tmp_path / "journal.jsonl"
        base = ["sweep", "--fast", "-p", "1", "--jobs", "2",
                "--journal", str(journal)]
        assert main(base + ["--grid", "10",
                            "--snapshot", str(tmp_path / "a.json")]) == 0
        assert main(base + ["--grid", "10,25",
                            "--snapshot", str(tmp_path / "b.json")]) == 0
        assert "(1 point(s) already complete)" in capsys.readouterr().out
        keys = journal_keys(journal)
        assert len(keys) == 2 and len(set(keys)) == 2
        assert len(SweepSnapshot.load(tmp_path / "b.json").points) == 2

