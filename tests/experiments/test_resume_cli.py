"""Crash-resume acceptance tests over the real CLI, on the local pool.

A ``repro sweep --jobs 2 --journal J`` is SIGKILLed mid-sweep: its pool
workers must exit with it instead of lingering as orphans, and a
relaunch with ``--resume`` must leave the journal holding every point
exactly once, bit-identical to a serial sweep: the killed sweep's
journal lock died with it (its workers closed their copies at the
fork), so the resume takes it at once.  Contention on the lock (a live
holder in another process, an old owner record in the sidecar, a torn
journal that a refused sweep must not rewrite) is pinned here for an
in-process sweep (``REPRO_SERIAL=1``) and in
``test_executors.TestJournalOwnership`` for the pool.

Every killed sweep starts in its own session, so teardown can SIGKILL
its whole process group and no test leaks a process.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.resilience import SweepJournal
from tests.experiments.journal_holder import held_elsewhere
from tests.experiments.processes import HAVE_PROC, children_of, gone

REPO = Path(__file__).resolve().parents[2]
GRID = "10,20,30,40,50,60,70,80"

pytestmark = pytest.mark.skipif(not HAVE_PROC, reason="needs a Linux /proc")


def cli_env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_SERIAL", None)
    return env


def sweep_cmd(journal, *extra):
    return [sys.executable, "-m", "repro.cli", "sweep", "--fast",
            "-p", "1", "--grid", GRID, "--journal", str(journal), *extra]


def journal_lines(path):
    if not path.exists():
        return []
    lines = []
    for line in path.read_text().splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn tail mid-crash is expected and tolerated
    return lines


def kill_after_first_append(cmd, env, journal, log_path):
    """Start ``cmd`` in its own session, SIGKILL it right after its
    first journal append; returns (pgid, pool worker pids at the kill).
    """
    # A log file, not a pipe: orphaned workers would inherit a pipe and
    # hold it open.
    with log_path.open("wb") as log:
        sweep = subprocess.Popen(cmd, env=env, stdout=log,
                                 stderr=subprocess.STDOUT,
                                 start_new_session=True)
    deadline = time.monotonic() + 120.0
    workers: list = []
    try:
        while time.monotonic() < deadline:
            if journal_lines(journal):
                break
            if sweep.poll() is not None:
                pytest.fail("sweep exited before its first append: "
                            f"{log_path.read_text()}")
            time.sleep(0.01)
        else:
            pytest.fail("no journal append within 120s")
        workers = children_of(sweep.pid)
        sweep.kill()  # SIGKILL: no cleanup; its lock dies with it
        sweep.wait(timeout=30.0)
    except BaseException:
        os.killpg(sweep.pid, signal.SIGKILL)
        raise
    return sweep.pid, workers


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class TestOrphanedWorkers:
    def test_pool_workers_exit_when_their_sweep_is_killed(self, tmp_path):
        """SIGKILL a ``--jobs 2`` sweep: every pool worker it left
        behind exits within 5 s instead of blocking forever on a call
        queue whose write end it holds itself."""
        journal = tmp_path / "journal.jsonl"
        pgid, workers = kill_after_first_append(
            sweep_cmd(journal, "--jobs", "2"), cli_env(tmp_path / "cache"),
            journal, tmp_path / "sweep.log")
        try:
            assert workers, "the sweep ran no pool workers"
            deadline = time.monotonic() + 5.0
            while (time.monotonic() < deadline
                   and not all(gone(pid) for pid in workers)):
                time.sleep(0.05)
            alive = [pid for pid in workers if not gone(pid)]
            assert not alive, f"orphaned pool workers still alive: {alive}"
        finally:
            reap_group(pgid)


class TestKillAndResumeCli:
    def test_sweep_sigkill_then_resume_is_exactly_once(self, tmp_path):
        """A ``--jobs 2`` sweep SIGKILLed after its first journal
        append, then relaunched with ``--resume`` on the same journal:
        the final journal holds every point exactly once, with payloads
        bit-identical to a serial sweep."""
        journal = tmp_path / "journal.jsonl"
        env = cli_env(tmp_path / "cache")
        cmd = sweep_cmd(journal, "--jobs", "2")
        pgid, _ = kill_after_first_append(cmd, env, journal,
                                          tmp_path / "first.log")
        try:
            lines_at_kill = len(journal_lines(journal))
            total = len(GRID.split(","))
            assert 1 <= lines_at_kill < total
            assert SweepJournal(journal).lock_path.exists()

            second = subprocess.run(
                cmd + ["--resume"], env=env, timeout=300,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            output = second.stdout.decode()
            assert second.returncode == 0, output
            assert "serial-fallback" not in output, output
        finally:
            reap_group(pgid)

        lines = journal_lines(journal)
        keys = [entry["key"] for entry in lines]
        assert len(keys) == total  # exactly-once: no duplicate appends
        assert len(set(keys)) == total

        serial_journal = tmp_path / "serial.jsonl"
        serial_env = cli_env(tmp_path / "serial-cache")
        serial_env["REPRO_SERIAL"] = "1"
        serial = subprocess.run(
            sweep_cmd(serial_journal), env=serial_env, timeout=300,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert serial.returncode == 0, serial.stdout.decode()
        by_key = {e["key"]: json.dumps(e["result"], sort_keys=True)
                  for e in lines}
        serial_by_key = {e["key"]: json.dumps(e["result"], sort_keys=True)
                         for e in journal_lines(serial_journal)}
        assert by_key == serial_by_key  # bit-identical to serial


class TestJournalOwnershipCli:
    def test_live_sweep_contention_is_single_line_exit(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "journal.jsonl"
        with held_elsewhere(path):
            with pytest.raises(SystemExit) as error:
                main(["sweep", "--fast", "-p", "1", "--grid", "10",
                      "--journal", str(path)])
        message = str(error.value)
        assert "owned by" in message and str(path) in message
        assert "\n" not in message
        assert not path.exists()  # nothing was appended

    def test_old_owner_record_naming_a_live_pid_does_not_block_resume(
            self, tmp_path, monkeypatch):
        """The sidecar of a sweep killed under an older release names
        a pid that a live, unrelated process (here the test runner's
        parent) now has: ``--resume`` still runs."""
        monkeypatch.setenv("REPRO_SERIAL", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.lock_path.write_text(json.dumps(
            {"owner": "crashed-sweep", "pid": os.getppid()}) + "\n")
        code = main(["sweep", "--fast", "-p", "1", "--grid", "10",
                     "--journal", str(journal.path), "--resume"])
        assert code == 0
        assert len(journal_lines(journal.path)) == 1

    def test_refused_sweep_and_diff_leave_a_torn_journal_alone(
            self, tmp_path, monkeypatch):
        """Only the lock holder rewrites a journal: a sweep refused the
        lock, and a snapshot rebuilt from the journal, read a torn tail
        without compacting it or moving it to the quarantine sidecar
        (it may be the live sweep's half-written line)."""
        from repro.obs.snapshot import SweepSnapshot

        monkeypatch.setenv("REPRO_SERIAL", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = SweepJournal(tmp_path / "journal.jsonl")
        assert main(["sweep", "--fast", "-p", "1", "--grid", "10",
                     "--journal", str(journal.path)]) == 0
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "schema_ver')
        before = journal.path.read_bytes()
        with held_elsewhere(journal.path):
            with pytest.raises(SystemExit) as error:
                main(["sweep", "--fast", "-p", "1", "--grid", "10,20",
                      "--journal", str(journal.path)])
            assert "owned by" in str(error.value)
            assert journal.path.read_bytes() == before
            assert not journal.quarantine_path.exists()
            snapshot = SweepSnapshot.from_journal(journal.path)
            assert len(snapshot.points) == 1
            assert journal.path.read_bytes() == before
            assert not journal.quarantine_path.exists()


class TestDefaultJournalName:
    """``--resume`` finds a sweep's journal under one name per sweep."""

    @staticmethod
    def journal_name(*extra):
        from repro.cli import _journal_path, _workload, build_parser

        args = build_parser().parse_args(
            ["sweep", "-p", "1", "--grid", "10,25", "--fast", "--resume",
             *extra])
        return _journal_path(args, None, _workload(args)).name

    def test_default_workload_adds_nothing_to_the_name(self):
        assert self.journal_name() == "xeon-mp-quad-p1-5a2454887bd6.jsonl"
        assert (self.journal_name("--workload", "odb-standard")
                == "xeon-mp-quad-p1-5a2454887bd6.jsonl")

    def test_other_workloads_are_suffixed(self):
        from repro.workload import workload_by_name

        fingerprint = workload_by_name("banking").fingerprint()
        assert (self.journal_name("--workload", "banking")
                == f"xeon-mp-quad-p1-5a2454887bd6-wl{fingerprint}.jsonl")
