"""Performance ledger: end-to-end and per-layer metrics of host time.

    PYTHONPATH=src python benchmarks/perf/run.py [--workload NAME|all]
        [--seed N] [--seconds S] [--trace [0|1]] [--sets K]
        [--write-reference] [--out FILE]

``BENCHMARK.json`` names this script as the benchmark's command, to be
invoked as ``--workload W --seed N --seconds S --trace 0|1`` with ``S``
its ``run_seconds``; ``--seconds`` defaults to that value.

Every workload runs in its own fresh interpreter (``session.py``).
Untraced runs first time seven more fresh interpreters from spawn to
"ready" (``setup_s``).  End-to-end times are reference seconds: host
seconds scaled by ``ledger.calibrate`` measured around them, so a spell
of host slowness does not read as a slower program.  The ledger prints
every metric by name with its unit, and the host seconds beside the
reference ones; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with
``--trace``).  This script imports nothing from the program: it finds
``src/`` beside itself, so it needs no ``PYTHONPATH`` of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from ledger import (
    LAYER_TIMES,
    REFERENCE_PATH,
    REFERENCE_SEED,
    calibrate,
    reference_scale,
    usable_cores,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SESSION = HERE / "session.py"
#: Fresh interpreters timed per run; ``setup_s`` is their median.  One
#: spawn takes about 0.3 s and a burst of host slowness lasts one to
#: three, so the median needs many of them.
SETUP_SPAWNS = 7
#: Longest time budget ``--seconds`` accepts (the longest ``run_seconds``
#: may be).  A run at that budget takes about 70 s.
MAX_SECONDS = 60
#: A session that has not finished by then is killed with its workers.
SESSION_TIMEOUT_S = 165.0
PROBE_TIMEOUT_S = 10.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a point failing)."""


def check_environment() -> None:
    """Refuse to run where parent and change would not run alike."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'repro'}")
    overrides = sorted(name for name in os.environ
                       if name.startswith("REPRO_"))
    if overrides:
        raise BenchError("unset " + ", ".join(overrides)
                         + ": the benchmark measures the program defaults")


def child_environment(scratch: str) -> dict:
    """The program importable from this checkout; temp files inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = scratch
    return env


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(command: list, env: dict) -> subprocess.Popen:
    # A session of its own, so one signal stops the child and any pool
    # or fabric workers it left behind.
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)


def _reap(process: subprocess.Popen) -> None:
    """Kill the child's whole process group and wait for the child."""
    _kill_group(process)
    process.wait()


def probe_seconds(name: str, seed: int, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    began = perf_counter()
    process = _spawn([sys.executable, str(SESSION), "--workload", name,
                      "--seed", str(seed), "--probe"], env)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, _kill_group, [process])
    watchdog.start()
    try:
        line = process.stdout.readline()
        elapsed = perf_counter() - began
        process.communicate()
    finally:
        watchdog.cancel()
        _reap(process)
    if line.strip() != "ready" or process.returncode != 0:
        raise BenchError(f"{name}: set-up probe failed "
                         f"(exit {process.returncode})")
    return elapsed


def run_session(name: str, args, env: dict, reference_run: bool) -> dict:
    """Run one workload session and return its report."""
    command = [sys.executable, str(SESSION), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if reference_run:
        command.append("--reference-run")
    process = _spawn(command, env)
    try:
        out, _ = process.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{name}: session exceeded {SESSION_TIMEOUT_S} s") from None
    finally:
        _reap(process)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{name}: session failed "
                         f"(exit {process.returncode})")
    return json.loads(lines[-1])


def setup_probes(name: str, seed: int, env: dict) -> tuple:
    """Host and reference seconds of each set-up probe, the host
    calibrated between probes."""
    hosts, refs = [], []
    calibration = calibrate()
    for _ in range(SETUP_SPAWNS):
        hosts.append(probe_seconds(name, seed, env))
        before, calibration = calibration, calibrate()
        refs.append(hosts[-1] * reference_scale(before, calibration))
    return hosts, refs


def run_workload(name: str, args, env: dict,
                 reference_run: bool = False) -> dict:
    """Set-up probes (untraced runs), then the session."""
    setup = None
    if not args.trace:
        setup = setup_probes(name, args.seed, env)
    report = run_session(name, args, env, reference_run)
    if setup:
        report["setup_spawns_s"], refs = setup
        report["host"]["setup_s"] = statistics.median(setup[0])
        report["metrics"]["setup_s"] = statistics.median(refs)
    report["metrics"]["failed_share"] = report["failed"] / report["attempted"]
    return report


def print_report(report: dict, catalog: dict, cpus: int) -> None:
    """The human-readable ledger of one workload run."""
    print(f"== {report['workload']}  seed={report['seed']} "
          f"trace={report['trace']} executor={report['executor']} "
          f"workers={report['workers']} steps={report['steps']} "
          f"wall={report['wall_s']:.3f} s")
    notes = {
        "setup_s": "median of spawns "
        + " ".join(f"{value:.3f}" for value in report.get("setup_spawns_s",
                                                           ())),
        "points_per_s": f"{report['point_walls']['n']} points",
        "point_s_p50": "  ".join(f"{key}={value:.6g}" for key, value
                                 in report["point_walls"].items()
                                 if key != "p50"),
        "failed_share": f"{report['failed']} of {report['attempted']} "
        f"failed; verified traced={report['verified']['traced']} "
        f"pinned={report['verified']['pinned']}",
    }
    for key, value in report["metrics"].items():
        unit = catalog.get(key, {}).get("unit", "ratio")
        note = notes.get(key, "")
        if key in report["host"]:
            note = f"(host {report['host'][key]:.6g})  {note}"
        print(f"  {key:<26} {value:>14.6g} {unit:<6} {note}")
    for index, reason in report["failures"].items():
        print(f"  FAILED point {index}: {reason}")
    for key, value in report.get("layers", {}).items():
        note = ("not measurable: fewer than 2 usable cores"
                if key.startswith("executor.") and cpus < 2 else "")
        print(f"  {key:<26} {value:>14.6g} "
              f"{catalog[key]['unit']:<6} {note}")
    for row in report["points"]:
        traced = row.get("traced")
        if traced is None:
            continue
        layers = "  ".join(f"{key}={traced[key]:.3f}"
                           for key in LAYER_TIMES)
        print(f"  point {row['label']}: wall {traced['wall_s']:.3f} s  "
              f"{layers}  coverage {traced['coverage']:.1%}")


def repeatability(reports: list, catalog: dict) -> list:
    """Per (workload, metric): median, quartiles and between-set spread."""
    rows = []
    names = sorted({report["workload"] for report in reports})
    for name in names:
        runs = [report for report in reports if report["workload"] == name]
        for key in runs[0]["metrics"]:
            if key not in catalog or "bound" not in catalog[key]:
                continue
            values = [run["metrics"][key] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            spread = (max(values) - min(values)) / median if median else 0.0
            rows.append({"workload": name, "metric": key, "median": median,
                         "q1": q1, "q3": q3, "spread": spread,
                         "bound": catalog[key]["bound"],
                         "within": spread <= catalog[key]["bound"],
                         "values": values})
    return rows


def final_line(reports: list, bench: dict, trace: int) -> dict:
    """The JSON result line: one run verbatim, several nested by workload."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]

    def metrics(report: dict) -> dict:
        source = report["layers"] if trace else report["metrics"]
        return {item["name"]: {"value": source[item["name"]],
                               "unit": item["unit"]} for item in wanted}

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed}
    if len(reports) == 1:
        line["metrics"] = metrics(reports[0])
    else:
        line["metrics"] = {f"{report['workload']}#{index}": metrics(report)
                           for index, report in enumerate(reports)}
    return line


def write_reference(reports: list) -> None:
    """Pin every point's checksum; refuse if any traced payload differed."""
    bad = [report["workload"] for report in reports if report["failed"]]
    if bad:
        raise BenchError("traced and untraced payloads disagree on "
                         + ", ".join(bad) + "; reference not written")
    pinned = {"seed": REFERENCE_SEED, "workloads": {}}
    if REFERENCE_PATH.exists():
        pinned = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    for report in reports:
        pinned["workloads"][report["workload"]] = [
            {"label": row["label"], "checksum": row["checksum"]}
            for row in report["points"]]
    REFERENCE_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


def parse_args(argv, workload_names: list):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workload_names + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the timed pass, at most "
                             f"{MAX_SECONDS} (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--sets", type=int, default=1,
                        help="run everything K times, alternating "
                             "workload order, and report repeatability")
    parser.add_argument("--write-reference", action="store_true",
                        help="pin seed-42 payload checksums into "
                             "reference.json")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full ledger as JSON")
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("--sets must be at least 1")
    if args.seconds is not None and not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    if args.write_reference and args.seed != REFERENCE_SEED:
        parser.error(f"the reference is pinned at --seed {REFERENCE_SEED}")
    return args


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [item["name"] for item in bench["workloads"]]
    args = parse_args(argv, names)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.write_reference:
        args.trace = 1
    catalog = {item["name"]: item
               for item in bench["end_to_end"] + bench["per_layer"]}
    selected = names if args.workload == "all" else [args.workload]
    try:
        check_environment()
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    cpus = usable_cores()
    context = {"host.cpus": cpus, "python": platform.python_version(),
               "machine": platform.machine(),
               "calibration_s": calibrate(), "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    print("context: " + "  ".join(f"{key}={value}"
                                  for key, value in context.items()))
    scratch_root = ROOT / ".perf_tmp"
    scratch_root.mkdir(exist_ok=True)
    reports = []
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            env = child_environment(scratch)
            for set_index in range(args.sets):
                order = selected if set_index % 2 == 0 else selected[::-1]
                for name in order:
                    report = run_workload(name, args, env,
                                          args.write_reference)
                    report["set"] = set_index
                    print_report(report, catalog, cpus)
                    reports.append(report)
        if args.write_reference:
            write_reference(reports)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    rows = repeatability(reports, catalog) if args.sets > 1 else []
    for row in rows:
        print(f"  sets {row['workload']:<18} {row['metric']:<22} "
              f"median {row['median']:.6g}  q1 {row['q1']:.6g}  "
              f"q3 {row['q3']:.6g}  spread {row['spread']:.1%}  "
              f"bound {row['bound']:.0%}  "
              f"{'ok' if row['within'] else 'OUTSIDE BOUND'}")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"context": context, "runs": reports, "repeatability": rows},
            indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final_line(reports, bench, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
