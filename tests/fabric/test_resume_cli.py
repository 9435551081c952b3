"""Coordinator crash-resume acceptance tests over the real CLI: a
SIGKILLed ``repro sweep --workers N --journal J`` coordinator is
relaunched with ``--resume`` and a fresh stdio fleet, and the journal
ends bit-identical to serial with exactly-once appends.  Plus the
journal owner-lock interplay."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.resilience import SweepJournal

REPO = Path(__file__).resolve().parents[2]
GRID = "10,20,30,40,50,60,70,80"


def cli_env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


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


class TestKillAndResumeCli:
    def test_coordinator_sigkill_then_resume_is_exactly_once(
            self, tmp_path):
        """The acceptance scenario: a coordinator with 3 stdio workers
        SIGKILLed mid-sweep after at least one journal append, then
        relaunched with ``--resume`` on the same journal.  The final
        journal holds every point exactly once with payloads
        bit-identical to a serial sweep."""
        journal = tmp_path / "journal.jsonl"
        env = cli_env(tmp_path / "cache")
        coordinator_cmd = [
            sys.executable, "-m", "repro.cli", "sweep", "--fast",
            "-p", "1", "--grid", GRID, "--workers", "3",
            "--journal", str(journal)]

        # A log file, not a pipe: the killed coordinator's orphaned
        # workers inherit its stderr and would hold a pipe open.
        with (tmp_path / "first.log").open("wb") as log:
            first = subprocess.Popen(coordinator_cmd, env=env, stdout=log,
                                     stderr=subprocess.STDOUT)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if journal_lines(journal):
                    break
                if first.poll() is not None:
                    pytest.fail("coordinator exited before first append:"
                                f" {(tmp_path / 'first.log').read_text()}")
                time.sleep(0.01)
            else:
                first.kill()
                pytest.fail("no journal append within 120s")
            first.kill()  # SIGKILL: no cleanup, stale lock left behind
            first.wait(timeout=30.0)
        lines_at_kill = len(journal_lines(journal))
        total = len(GRID.split(","))
        assert 1 <= lines_at_kill < total
        assert SweepJournal(journal).lock_path.exists()

        second = subprocess.run(
            coordinator_cmd + ["--resume"], env=env, timeout=300,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        output = second.stdout.decode()
        assert second.returncode == 0, output
        assert "local-fallback" not in output, output

        lines = journal_lines(journal)
        keys = [entry["key"] for entry in lines]
        assert len(keys) == total  # exactly-once: no duplicate appends
        assert len(set(keys)) == total

        serial_journal = tmp_path / "serial.jsonl"
        serial = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "--fast",
             "-p", "1", "--grid", GRID, "--journal", str(serial_journal)],
            env=cli_env(tmp_path / "serial-cache"), timeout=300,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert serial.returncode == 0, serial.stdout.decode()
        by_key = {e["key"]: json.dumps(e["result"], sort_keys=True)
                  for e in lines}
        serial_by_key = {e["key"]: json.dumps(e["result"], sort_keys=True)
                         for e in journal_lines(serial_journal)}
        assert by_key == serial_by_key  # bit-identical to serial


class TestJournalOwnershipCli:
    def test_live_coordinator_contention_is_single_line_exit(
            self, tmp_path, capsys):
        journal = SweepJournal(tmp_path / "journal.jsonl")
        journal.acquire(owner="live-coordinator")
        try:
            with pytest.raises(SystemExit) as error:
                main(["sweep", "--fast", "-p", "1", "--grid", "10",
                      "--workers", "1", "--journal", str(journal.path)])
            message = str(error.value)
            assert "owned by" in message
            assert "\n" not in message
        finally:
            journal.release()

    def test_stale_lock_of_dead_coordinator_broken_by_resume(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = SweepJournal(tmp_path / "journal.jsonl")
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=30.0)
        journal.lock_path.write_text(json.dumps(
            {"owner": "crashed-coordinator", "pid": dead.pid}) + "\n")
        code = main(["sweep", "--fast", "-p", "1", "--grid", "10",
                     "--workers", "1", "--journal", str(journal.path),
                     "--resume"])
        assert code == 0
        assert not journal.lock_path.exists()  # broken, then released
        assert len(journal_lines(journal.path)) == 1
