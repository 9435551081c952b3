"""Wall-clock regression benchmark for the simulation hot paths.

Unlike the figure benchmarks (which pin *what* the model computes),
this one pins *how long* computing it takes::

    PYTHONPATH=src python benchmarks/bench_runtime.py             # quick mode
    PYTHONPATH=src python benchmarks/bench_runtime.py --mode full
    PYTHONPATH=src python benchmarks/bench_runtime.py --check     # CI gate

Each mode times three things, always uncached:

- one canonical single-configuration run (DES + trace + CPI fixed point);
- a small warehouse sweep executed serially (:func:`run_sweep` with no
  executor: in this process);
- the same sweep through :func:`repro.experiments.parallel.run_sweep` on the local pool.

Results land in ``benchmarks/BENCH_runtime.json``.  ``--check`` compares
against the committed ``benchmarks/BENCH_runtime_baseline.json`` and
exits non-zero when any measurement regresses by more than
``--tolerance`` (default 25%).  Because CI machines differ from the
machine that produced the baseline, both files carry a *calibration*
measurement — a fixed pure-Python workload — and the check compares
calibration-normalized times, not raw seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.configs import (  # noqa: E402
    DEFAULT_SETTINGS,
    FAST_SETTINGS,
)
from repro.experiments.parallel import (  # noqa: E402
    PoolExecutor,
    run_sweep,
)
from repro.experiments.runner import run_configuration  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_runtime.json"
DEFAULT_BASELINE = (Path(__file__).resolve().parent
                    / "BENCH_runtime_baseline.json")

#: What each mode runs.  ``single`` is the canonical Table 1 anchor
#: configuration; the sweep grids are small enough for CI but span the
#: cached and scaled regions, so both the DES- and trace-dominated
#: profiles contribute.
MODES = {
    "quick": {
        "single": {"warehouses": 100, "processors": 4,
                   "settings": FAST_SETTINGS},
        "sweep": {"grid": (10, 25, 50, 100), "processors": 2,
                  "settings": FAST_SETTINGS},
    },
    "full": {
        "single": {"warehouses": 100, "processors": 4,
                   "settings": DEFAULT_SETTINGS},
        "sweep": {"grid": (10, 50, 100, 200), "processors": 4,
                  "settings": DEFAULT_SETTINGS},
    },
}


def calibrate(rounds: int = 3_000_000, repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python workload (machine-speed proxy).

    Used to normalize wall-clock comparisons across machines: the same
    mix of arithmetic, indexing, and loop overhead that dominates the
    simulators, with no I/O.  Best-of-``repeats`` over a multi-hundred-
    millisecond loop, so scheduler jitter and interpreter warm-up do not
    leak into the normalization factor.
    """
    best = float("inf")
    values = list(range(97))
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(rounds):
            acc = (acc * 31 + values[i % 97]) % 1_000_003
        if acc < 0:  # pragma: no cover - keeps the loop from being elided
            raise AssertionError
        best = min(best, time.perf_counter() - start)
    return best


def time_single(spec: dict, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of one uncached configuration run.

    Best-of-N because the first run in a fresh process pays one-time
    costs (allocator growth, first-touch page faults) that are not the
    hot path being pinned, and shared CI hosts inject multi-hundred-ms
    stalls at random — the minimum is the stable statistic.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_configuration(spec["warehouses"], spec["processors"],
                          settings=spec["settings"], use_cache=False)
        best = min(best, time.perf_counter() - start)
    return best


def time_sweep_serial(spec: dict) -> float:
    start = time.perf_counter()
    run_sweep(spec["grid"], spec["processors"], settings=spec["settings"],
              use_cache=False)
    return time.perf_counter() - start


def time_sweep_parallel(spec: dict, jobs: int) -> float:
    # An isolated cache directory keeps the measurement honest (nothing
    # pre-cached, nothing left behind) while letting the workers
    # exercise the real atomic-store path.
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        start = time.perf_counter()
        run_sweep(spec["grid"], spec["processors"],
                  settings=spec["settings"], cache_dir=cache_dir,
                  executor=PoolExecutor(jobs))
        return time.perf_counter() - start


def measure(mode: str, jobs: int) -> dict:
    spec = MODES[mode]
    # Calibrate on both sides of the measurements and average: on a
    # shared host the machine-speed proxy drifts over the run, and a
    # single pre-measurement sample can catch a fast (or slow) window
    # the measurements themselves never saw.
    calibration_before = calibrate()
    single = time_single(spec["single"])
    serial = time_sweep_serial(spec["sweep"])
    parallel = time_sweep_parallel(spec["sweep"], jobs)
    calibration = (calibration_before + calibrate()) / 2.0
    return {
        "mode": mode,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": round(calibration, 4),
        "measurements": {
            "single_wall_s": round(single, 3),
            "sweep_serial_wall_s": round(serial, 3),
            "sweep_parallel_wall_s": round(parallel, 3),
        },
        "derived": {
            "parallel_speedup": round(serial / parallel, 3),
        },
    }


def add_pre_optimization_speedups(report: dict, baseline: dict) -> None:
    """Speedups vs the recorded pre-optimization timings, when present.

    The pre-optimization numbers were taken on the baseline machine, so
    every speedup is calibration-normalized: ``(pre_wall / pre_calib) /
    (cur_wall / cur_calib)``.
    """
    pre = baseline.get("pre_optimization", {}).get(report["mode"])
    if not pre:
        return
    pre_calib = pre.get("calibration_s")
    cur_calib = report["calibration_s"]
    if not pre_calib or not cur_calib:
        return
    derived = report["derived"]
    current = report["measurements"]

    def normalized_speedup(pre_wall: float, cur_wall: float) -> float:
        return round((pre_wall / pre_calib) / (cur_wall / cur_calib), 3)

    if "single_wall_s" in pre:
        derived["single_speedup_vs_pre"] = normalized_speedup(
            pre["single_wall_s"], current["single_wall_s"])
    if "sweep_serial_wall_s" in pre:
        derived["sweep_speedup_vs_pre"] = normalized_speedup(
            pre["sweep_serial_wall_s"], current["sweep_parallel_wall_s"])


def check(report: dict, baseline: dict, tolerance: float,
          min_single_speedup: float = None) -> list[str]:
    """Calibration-normalized regressions beyond ``tolerance``.

    ``min_single_speedup`` additionally gates the hot-path optimization
    claim: the normalized single-run speedup vs the pre-optimization
    recording must stay at or above it.  ``None``
    takes the mode's committed ``min_single_speedup`` from the baseline
    (the quick single is trace-dominated and holds ≥2×; the full single
    is DES-dominated and pins a lower floor); ``0`` disables the gate.
    """
    reference = baseline.get(report["mode"])
    if not reference:
        return [f"baseline has no '{report['mode']}' section"]
    if min_single_speedup is None:
        min_single_speedup = reference.get("min_single_speedup", 0.0)
    base_calib = reference.get("calibration_s")
    cur_calib = report["calibration_s"]
    failures = []
    for name, base_wall in reference.get("measurements", {}).items():
        cur_wall = report["measurements"].get(name)
        if cur_wall is None:
            failures.append(f"{name}: missing from current run")
            continue
        # Normalize both sides by their machine-speed proxy so a slower
        # CI host does not read as a code regression.
        ratio = (cur_wall / cur_calib) / (base_wall / base_calib)
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{name}: {cur_wall:.2f}s vs baseline {base_wall:.2f}s "
                f"(normalized ratio {ratio:.2f} > {1.0 + tolerance:.2f})")
    if min_single_speedup > 0.0:
        speedup = report["derived"].get("single_speedup_vs_pre")
        if speedup is None:
            failures.append(
                "single_speedup_vs_pre: not derivable (pre_optimization "
                "timings or calibrations missing from the baseline)")
        elif speedup < min_single_speedup:
            failures.append(
                f"single_speedup_vs_pre: {speedup:.2f}x < required "
                f"{min_single_speedup:.2f}x")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="quick")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the parallel-sweep measurement")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized slowdown (0.25 = 25%%)")
    parser.add_argument("--min-single-speedup", type=float, default=None,
                        help="required normalized single-run speedup vs the "
                             "pre-optimization recording (default: the "
                             "mode's committed floor; 0 disables)")
    args = parser.parse_args(argv)

    report = measure(args.mode, args.jobs)
    baseline = {}
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        add_pre_optimization_speedups(report, baseline)

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.output}")

    if args.check:
        if not baseline:
            print(f"error: --check needs a baseline at {args.baseline}")
            return 2
        failures = check(report, baseline, args.tolerance,
                         min_single_speedup=args.min_single_speedup)
        if failures:
            print("RUNTIME REGRESSION:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"runtime check OK (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
