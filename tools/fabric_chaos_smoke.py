#!/usr/bin/env python3
"""CI fabric chaos smoke: distributed sweeps survive injected faults.

Run by the ``fabric-chaos-smoke`` CI job (and runnable locally):

    PYTHONPATH=src python tools/fabric_chaos_smoke.py --out /tmp/fabric
    PYTHONPATH=src python tools/fabric_chaos_smoke.py \\
        --scenario kill-resume --out /tmp/fabric

Every scenario computes a small serial golden sweep first, then re-runs
the same grid through the fabric under injected chaos and asserts the
results are **byte-identical** to the golden, the degradation actually
happened (a silently clean run would make the smoke vacuous), and the
journal holds every point **exactly once**.  Scenarios:

- ``kill`` (default) — three stdio workers, chaos SIGKILLs the worker
  holding the first point's lease; the point is re-leased.
- ``kill-resume`` — a real ``repro sweep --workers 3 --journal`` CLI
  coordinator with three stdio workers is SIGKILLed after its first
  journal append, then relaunched with ``--resume`` and a fresh fleet;
  the final journal is exactly-once.

``kill`` writes the per-worker degradation timeline (sweep report with
fleet-health section), the raw event log, and the worker-health
snapshot into ``--out`` for upload as a CI artifact; ``kill-resume``
writes both coordinators' logs there.  Exit status 0
means every assertion held.
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

from repro.experiments.configs import FAST_SETTINGS  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    RunSpec,
    SupervisorPolicy,
    run_sweep,
)
from repro.experiments.runner import sweep  # noqa: E402
from repro.fabric import (  # noqa: E402
    FabricChaosPolicy,
    FabricCoordinator,
    FabricPolicy,
)
from repro.obs.sweep_report import build_sweep_report  # noqa: E402

GRID = (10, 25)
PROCESSORS = 1
WORKERS = 3

FAST_POLICY = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                               max_backoff_s=0.05, tick_s=0.02)


def canonical(results) -> str:
    """Bit-identity fingerprint: canonical JSON of every result."""
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


def journal_keys(path: Path) -> list[str]:
    """Config keys in journal append order (duplicates included)."""
    keys = []
    if not path.exists():
        return keys
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            keys.append(json.loads(line)["key"])
        except (json.JSONDecodeError, KeyError):
            continue  # torn tail mid-crash is expected and tolerated
    return keys


def make_specs() -> list[RunSpec]:
    return [RunSpec(warehouses=w, processors=PROCESSORS,
                    settings=FAST_SETTINGS) for w in GRID]


def write_timeline(out: Path, title: str, coordinator) -> None:
    """Per-worker degradation timeline + raw events as CI artifacts."""
    health = coordinator.worker_health()
    report = build_sweep_report([], title=title,
                                events=coordinator.events, workers=health)
    (out / "fabric-report.md").write_text(report.to_markdown(),
                                          encoding="utf-8")
    (out / "events.json").write_text(
        json.dumps(coordinator.events, indent=2, sort_keys=True),
        encoding="utf-8")
    (out / "worker-health.json").write_text(
        json.dumps([vars(h) for h in health], indent=2, sort_keys=True,
                   default=str),
        encoding="utf-8")


def check_common(failures: list, results, golden_blob: str,
                 journal: Path, specs) -> None:
    if canonical(results) != golden_blob:
        failures.append("fabric results differ from serial golden")
    keys = journal_keys(journal)
    expected = sorted(spec.key() for spec in specs)
    if sorted(keys) != expected:
        failures.append(f"journal not exactly-once: {keys} vs {expected}")


def check_reaped(failures: list, coordinator) -> None:
    for runtime in coordinator._workers:
        process = getattr(runtime.transport, "process", None)
        if process is not None and process.poll() is None:
            failures.append(f"worker {runtime.name} not reaped")


def scenario_kill(out: Path, golden_blob: str) -> list[str]:
    """Three stdio workers; chaos SIGKILLs the first point's holder."""
    specs = make_specs()
    victim = specs[0].key()
    chaos = FabricChaosPolicy(seed=11, kill=1.0, attempts=1,
                              targets=(victim,))
    coordinator = FabricCoordinator(
        fabric=FabricPolicy(workers=WORKERS, heartbeat_s=0.1,
                            heartbeat_timeout_s=1.5),
        chaos=chaos)

    policy = FAST_POLICY

    print(f"[2/4] fabric sweep, {WORKERS} stdio workers, "
          f"chaos SIGKILLs the worker holding {victim}")
    journal = out / "journal.jsonl"
    results = [point.result for point in run_sweep(
        GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False,
        journal=journal, executor=coordinator, policy=policy)]

    print("[3/4] checking invariants")
    failures: list[str] = []
    check_common(failures, results, golden_blob, journal, specs)
    kinds = {event["event"] for event in coordinator.events}
    if "worker-lost" not in kinds:
        failures.append(f"no worker-lost event (saw {sorted(kinds)})")
    if "point-retry" not in kinds:
        failures.append(f"no point-retry event (saw {sorted(kinds)})")
    health = coordinator.worker_health()
    if [h.state for h in health].count("lost") != 1:
        failures.append(f"expected exactly one lost worker, got "
                        f"{[h.state for h in health]}")
    check_reaped(failures, coordinator)

    print("[4/4] writing per-worker degradation timeline")
    write_timeline(out, "Fabric chaos smoke — sweep under injected "
                   "worker SIGKILL", coordinator)
    return failures


def scenario_kill_resume(out: Path, golden_blob: str) -> list[str]:
    """SIGKILL a real CLI coordinator mid-sweep; resume on the same
    journal with a fresh stdio fleet."""
    specs = make_specs()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(out / "cache")
    journal = out / "journal.jsonl"
    grid_text = ",".join(str(w) for w in GRID)
    coordinator_cmd = [
        sys.executable, "-m", "repro.cli", "sweep", "--fast",
        "-p", str(PROCESSORS), "--grid", grid_text, "--workers", "3",
        "--journal", str(journal)]

    print("[2/4] CLI coordinator with 3 stdio workers; SIGKILL after "
          "first append")
    failures: list[str] = []
    # A log file, not a pipe: the killed coordinator's orphaned workers
    # inherit its stderr and would hold a pipe open.
    with (out / "coordinator-first.log").open("wb") as log:
        first = subprocess.Popen(coordinator_cmd, env=env, stdout=log,
                                 stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and not journal_keys(journal):
            if first.poll() is not None:
                failures.append("coordinator exited before first append")
                return failures
            time.sleep(0.01)
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=30.0)
    if not journal_keys(journal):
        failures.append("no journal append within 120s")
        return failures

    print("[3/4] resuming on the same journal; checking invariants")
    second = subprocess.run(coordinator_cmd + ["--resume"], env=env,
                            timeout=300, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    (out / "coordinator-resume.log").write_bytes(second.stdout)
    if second.returncode != 0:
        failures.append(f"resumed coordinator exited {second.returncode}")
    if b"local-fallback" in second.stdout:
        failures.append("resumed sweep fell back to local execution")

    keys = journal_keys(journal)
    expected = sorted(spec.key() for spec in specs)
    if sorted(keys) != expected:
        failures.append(f"journal not exactly-once after resume: "
                        f"{keys} vs {expected}")
    golden_by_key = {
        spec.key(): json.dumps(result, sort_keys=True)
        for spec, result in zip(specs, json.loads(golden_blob))}
    for line in journal.read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        if json.dumps(entry["result"],
                      sort_keys=True) != golden_by_key.get(entry["key"]):
            failures.append(f"journal payload for {entry['key']} differs "
                            f"from serial golden")

    print("[4/4] coordinator timelines in coordinator-*.log")
    return failures


SCENARIOS = {
    "kill": scenario_kill,
    "kill-resume": scenario_kill_resume,
}


def main() -> int:
    """Run one fabric chaos smoke scenario; 0 when every assertion holds."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="/tmp/fabric-chaos-smoke",
                        help="artifact directory (report + timelines)")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="kill",
                        help="which fault script to run (default: kill)")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"[1/4] serial golden sweep: W={GRID} P={PROCESSORS}")
    golden = sweep(GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False)
    golden_blob = canonical(golden)

    failures = SCENARIOS[args.scenario](out, golden_blob)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"fabric chaos smoke ({args.scenario}) clean: journal "
          f"exactly-once, results bit-identical to serial golden; "
          f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
