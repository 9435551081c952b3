#!/usr/bin/env python3
"""CI chaos smoke: pool sweeps survive killed workers, bit-identically.

Run by the ``chaos-smoke`` CI job (and runnable locally):

    PYTHONPATH=src python tools/chaos_smoke.py --out /tmp/chaos
    PYTHONPATH=src python tools/chaos_smoke.py \
        --scenario kill-resume --out /tmp/chaos-kill-resume

Each scenario first computes a small serial golden: the plain
``run_configuration`` loop of ``tests/experiments/serial_oracle.py``
that the test suite's determinism checks compare against too.

``kill`` (default) re-runs the same grid through the sweep driver on
one two-worker :class:`repro.experiments.parallel.PoolExecutor` while a
:class:`~repro.experiments.parallel.ChaosPolicy` kills the worker
handling the first point, so the pool breaks and is rebuilt.  It
asserts:

- the results are **byte-identical** to the serial golden;
- the degradation actually happened (a ``pool-rebuild`` event plus
  ``point-retry``), and the pool was never exhausted (no
  ``serial-fallback``) — a silently clean run would make the smoke
  test vacuous;
- the ``pool.*`` counters and ``pool-*`` JSONL records reached the
  metrics stream.

It then writes the degradation-timeline sweep report plus the raw
event log into ``--out`` for upload as a CI artifact.

``kill-resume`` stops a real ``repro sweep --jobs 2 --journal`` (SIGSTOP)
after its first journal append and starts a second sweep on the same
journal.  That one must exit non-zero with the one-line ownership
message and leave the journal byte-identical (no compaction, no
quarantine sidecar): the stopped sweep still holds the journal's lock.
It then SIGKILLs the first sweep and asserts that its pool workers exit
with it, relaunches the sweep with ``--resume`` on the same journal and
asserts that the journal holds every point exactly once, byte-identical
to the golden.  The sweeps' logs go into ``--out``.

Exit status 0 means every assertion held.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.experiments.configs import FAST_SETTINGS  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    ChaosPolicy,
    PoolExecutor,
    RunSpec,
    SupervisorPolicy,
    run_points,
)
from repro.obs import metrics as metrics_module  # noqa: E402
from repro.obs.sweep_report import build_sweep_report  # noqa: E402
from tests.experiments.serial_oracle import serial_results  # noqa: E402

GRID = (10, 25)
#: Long enough that the kill lands mid-sweep.
RESUME_GRID = (10, 20, 30, 40, 50, 60)
PROCESSORS = 1


def canonical(results) -> str:
    """Bit-identity fingerprint: canonical JSON of every result."""
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


def golden_sweep(grid) -> list:
    print(f"[1/4] serial golden: W={grid} P={PROCESSORS}")
    return serial_results(grid, PROCESSORS)


def scenario_kill(out: Path) -> list[str]:
    """A pool sweep whose first point's worker is killed by chaos."""
    golden_blob = canonical(golden_sweep(GRID))
    specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                     settings=FAST_SETTINGS) for w in GRID]
    victim = specs[0].key()
    chaos = ChaosPolicy(seed=11, kill=1.0, attempts=1, targets=(victim,))
    policy = SupervisorPolicy(max_retries=3)
    pool = PoolExecutor(jobs=2, chaos=chaos)

    print(f"[2/4] pool sweep, 2 workers, chaos kills {victim}")
    stream = out / "metrics.jsonl"
    registry = metrics_module.enable_metrics(stream_path=str(stream))
    try:
        points = run_points(specs, pool, policy=policy, trace=True,
                            use_cache=False)
    finally:
        metrics_module.disable_metrics()
    survived = [point.result for point in points]

    print("[3/4] checking invariants")
    failures = []
    if canonical(survived) != golden_blob:
        failures.append("pool results differ from serial golden")
    kinds = {event["event"] for event in pool.events}
    if "point-retry" not in kinds:
        failures.append(f"no point-retry event (saw {sorted(kinds)})")
    if "pool-rebuild" not in kinds:
        failures.append(f"no pool-rebuild event (saw {sorted(kinds)})")
    if "serial-fallback" in kinds:
        failures.append("pool was exhausted (serial-fallback)")
    if registry.counters.get("pool.point_retry", 0) < 1:
        failures.append("pool.point_retry counter missing")
    stream_events = [json.loads(line)
                     for line in stream.read_text().splitlines()]
    if not any(record["event"].startswith("pool-")
               for record in stream_events):
        failures.append("no pool-* records in the metrics stream")

    print("[4/4] writing degradation-timeline report")
    report = build_sweep_report(points, title="Chaos smoke — sweep under "
                                "injected worker kill",
                                events=pool.events)
    (out / "chaos-report.md").write_text(report.to_markdown(),
                                         encoding="utf-8")
    (out / "events.json").write_text(
        json.dumps(pool.events, indent=2, sort_keys=True),
        encoding="utf-8")

    return failures


def journal_entries(path: Path) -> list[dict]:
    """Journal lines in append order; a torn tail is skipped."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn tail mid-crash is expected and tolerated
    return entries


def children_of(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def alive(pid: int) -> bool:
    """Running: neither gone nor a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def contend(command: list[str], env: dict, journal: Path,
            out: Path) -> list[str]:
    """Run a second sweep on a journal a stopped sweep holds: it must
    be refused with one line and leave the journal as it was."""
    before = journal.read_bytes()
    second = subprocess.run(command, env=env, timeout=120,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    (out / "sweep-contender.log").write_bytes(second.stdout + second.stderr)
    failures = []
    message = second.stderr.decode().strip()
    if second.returncode == 0:
        failures.append("a second sweep ran on a held journal")
    elif "owned by" not in message or "\n" in message:
        failures.append(f"contender did not exit with the one-line "
                        f"ownership message: {message!r}")
    if journal.read_bytes() != before:
        failures.append("the refused sweep changed the journal")
    if journal.with_name(journal.name + ".quarantine").exists():
        failures.append("the refused sweep quarantined journal lines")
    return failures


def scenario_kill_resume(out: Path) -> list[str]:
    """Contend for, then SIGKILL, a real CLI sweep mid-run; resume it on
    its journal."""
    golden = golden_sweep(RESUME_GRID)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(out / "cache")
    env.pop("REPRO_SERIAL", None)
    journal = out / "journal.jsonl"
    for stale in (journal, journal.with_name(journal.name + ".quarantine")):
        stale.unlink(missing_ok=True)
    command = [sys.executable, "-m", "repro.cli", "sweep", "--fast",
               "-p", str(PROCESSORS), "--jobs", "2",
               "--grid", ",".join(str(w) for w in RESUME_GRID),
               "--journal", str(journal)]

    print("[2/4] CLI sweep on a 2-worker pool; after the first append, "
          "stop it, contend for its journal, then SIGKILL it")
    failures: list[str] = []
    # A log file, not a pipe, and a session of its own, so that any
    # worker that outlived the kill is still reaped below.
    with (out / "sweep-first.log").open("wb") as log:
        first = subprocess.Popen(command, env=env, stdout=log,
                                 stderr=subprocess.STDOUT,
                                 start_new_session=True)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and not journal_entries(journal):
            if first.poll() is not None:
                return ["sweep exited before its first append"]
            time.sleep(0.01)
        if not journal_entries(journal):
            return ["no journal append within 120s"]
        # Stopped, the sweep holds its lock but appends nothing more.
        first.send_signal(signal.SIGSTOP)
        failures += contend(command, env, journal, out)
        workers = children_of(first.pid)
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(alive, workers)):
            time.sleep(0.05)
        orphans = [pid for pid in workers if alive(pid)]
        if orphans:
            failures.append(f"pool workers outlived the sweep: {orphans}")
    finally:
        try:
            os.killpg(first.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    print("[3/4] resuming on the same journal; checking invariants")
    second = subprocess.run(command + ["--resume"], env=env, timeout=300,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    (out / "sweep-resume.log").write_bytes(second.stdout)
    if second.returncode != 0:
        failures.append(f"resumed sweep exited {second.returncode}")
    if b"serial-fallback" in second.stdout:
        failures.append("resumed sweep fell back to in-process execution")
    entries = journal_entries(journal)
    keys = [entry["key"] for entry in entries]
    specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                     settings=FAST_SETTINGS) for w in RESUME_GRID]
    expected = sorted(spec.key() for spec in specs)
    if sorted(keys) != expected:
        failures.append(f"journal not exactly-once after resume: "
                        f"{keys} vs {expected}")
    golden_by_key = {spec.key(): json.dumps(result.to_dict(),
                                            sort_keys=True)
                     for spec, result in zip(specs, golden)}
    for entry in entries:
        if (json.dumps(entry["result"], sort_keys=True)
                != golden_by_key.get(entry["key"])):
            failures.append(f"journal payload for {entry['key']} differs "
                            f"from the serial golden")

    print("[4/4] sweep logs in sweep-*.log")
    return failures


SCENARIOS = {
    "kill": scenario_kill,
    "kill-resume": scenario_kill_resume,
}


def main() -> int:
    """Run one chaos smoke scenario; 0 when every assertion holds."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="/tmp/chaos-smoke",
                        help="artifact directory (report, logs)")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="kill",
                        help="which fault script to run (default: kill)")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failures = SCENARIOS[args.scenario](out)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"chaos smoke ({args.scenario}) clean: results bit-identical "
          f"to the serial golden; artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
