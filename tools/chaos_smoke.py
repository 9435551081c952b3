#!/usr/bin/env python3
"""CI chaos smoke: a pool sweep survives a killed worker, bit-identically.

Run by the ``chaos-smoke`` CI job (and runnable locally):

    PYTHONPATH=src python tools/chaos_smoke.py --out /tmp/chaos

The script computes a small serial golden sweep, then re-runs the same
grid through the sweep driver on one two-worker
:class:`repro.experiments.parallel.PoolExecutor` while a
:class:`~repro.fabric.chaos.FabricChaosPolicy` kills the worker
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
event log into ``--out`` for upload as a CI artifact.  Exit status 0
means every assertion held.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.configs import FAST_SETTINGS  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    PoolExecutor,
    RunSpec,
    SupervisorPolicy,
    run_points,
)
from repro.experiments.runner import sweep  # noqa: E402
from repro.fabric.chaos import FabricChaosPolicy  # noqa: E402
from repro.obs import metrics as metrics_module  # noqa: E402
from repro.obs.sweep_report import build_sweep_report  # noqa: E402

GRID = (10, 25)
PROCESSORS = 1


def canonical(results) -> str:
    """Bit-identity fingerprint: canonical JSON of every result."""
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


def main() -> int:
    """Run the chaos smoke; returns 0 when every assertion holds."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="/tmp/chaos-smoke",
                        help="artifact directory (report + event log)")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print(f"[1/4] serial golden sweep: W={GRID} P={PROCESSORS}")
    golden = sweep(GRID, PROCESSORS, settings=FAST_SETTINGS, use_cache=False)
    golden_blob = canonical(golden)

    specs = [RunSpec(warehouses=w, processors=PROCESSORS,
                     settings=FAST_SETTINGS) for w in GRID]
    victim = specs[0].key()
    chaos = FabricChaosPolicy(seed=11, kill=1.0, attempts=1,
                              targets=(victim,))
    policy = SupervisorPolicy(max_retries=3, base_backoff_s=0.01,
                              max_backoff_s=0.05, tick_s=0.02)
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

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"chaos smoke clean: {len(pool.events)} degradation "
          f"event(s), results bit-identical to serial golden; "
          f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
