"""Crash-resume acceptance tests over the real CLI, on the local pool.

A ``repro sweep --jobs 2 --journal J`` is SIGKILLed mid-sweep: its pool
workers must exit with it instead of lingering as orphans, and a
relaunch with ``--resume`` must leave the journal holding every point
exactly once, bit-identical to a serial sweep.  The journal owner-lock
interplay (live-owner contention, a dead owner's stale lock) is pinned
here for an in-process sweep (``REPRO_SERIAL=1``) and in
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

REPO = Path(__file__).resolve().parents[2]
GRID = "10,20,30,40,50,60,70,80"

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="needs a Linux /proc")


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


def proc_stat(pid):
    """``(state, ppid)`` of ``pid``, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces: fields resume after its ')'.
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def children_of(pid):
    """Live pids whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = proc_stat(int(entry.name))
            if stat is not None and stat[1] == pid:
                found.append(int(entry.name))
    return found


def gone(pid):
    """Exited: no process, or a zombie its new parent has not reaped."""
    stat = proc_stat(pid)
    return stat is None or stat[0] == "Z"


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
        sweep.kill()  # SIGKILL: no cleanup, stale lock left behind
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
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.acquire(owner="live-sweep")
        try:
            with pytest.raises(SystemExit) as error:
                main(["sweep", "--fast", "-p", "1", "--grid", "10",
                      "--journal", str(journal.path)])
            message = str(error.value)
            assert "owned by" in message and "live-sweep" in message
            assert "\n" not in message
            assert not journal.path.exists()  # nothing was appended
        finally:
            journal.release()

    def test_stale_lock_of_dead_sweep_broken_by_resume(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERIAL", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = SweepJournal(tmp_path / "journal.jsonl")
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=30.0)
        journal.lock_path.write_text(json.dumps(
            {"owner": "crashed-sweep", "pid": dead.pid}) + "\n")
        code = main(["sweep", "--fast", "-p", "1", "--grid", "10",
                     "--journal", str(journal.path), "--resume"])
        assert code == 0
        assert not journal.lock_path.exists()  # broken, then released
        assert len(journal_lines(journal.path)) == 1


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
