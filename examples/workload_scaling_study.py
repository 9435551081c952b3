#!/usr/bin/env python3
"""Workload-scaling study: reproduce the paper's core methodology.

Sweeps the warehouse count from a cached setup (10W) to a scaled setup
(800W) at 4 processors, fits the two linear regions to the CPI trend,
reports the pivot point, and shows how well the scaled-region line
extrapolates — i.e. Section 6 of the paper, end to end, on your laptop.

Run:  python examples/workload_scaling_study.py
"""

from repro.core.pivot import pivot_point, representative_configuration
from repro.experiments.configs import RunnerSettings
from repro.experiments.report import render_series
from repro.experiments.parallel import run_sweep

GRID = (10, 25, 50, 100, 150, 200, 400, 800)
SETTINGS = RunnerSettings(warmup_txns=300, measure_txns=1500,
                          trace_txns=600, trace_warmup=150,
                          fixed_point_rounds=2)


def main() -> None:
    print(f"Sweeping W over {GRID} at 4P (a few minutes, cached after "
          "the first run)...\n")
    records = [point.result for point in run_sweep(GRID, 4,
                                                   settings=SETTINGS)]

    warehouses = [r.warehouses for r in records]
    cpi = [r.cpi.cpi for r in records]
    mpi = [r.rates.l3_misses_per_instr * 1000 for r in records]
    tps = [r.tps for r in records]
    print(render_series(
        "CPI / MPI / TPS vs warehouses (4P)", "Warehouses", warehouses,
        {"CPI": cpi, "L3 MPI (per 1000)": mpi, "TPS": tps}))

    analysis = pivot_point(warehouses, cpi, metric="cpi", processors=4)
    fit = analysis.fit
    print(f"\nTwo-region fit of the CPI trend:")
    print(f"  cached region: CPI = {fit.cached.slope:.4f}*W "
          f"+ {fit.cached.intercept:.2f}  (r^2={fit.cached.r_squared:.3f})")
    print(f"  scaled region: CPI = {fit.scaled.slope:.4f}*W "
          f"+ {fit.scaled.intercept:.2f}  (r^2={fit.scaled.r_squared:.3f})")
    print(f"  pivot point:   {analysis.pivot_warehouses:.0f} warehouses")

    representative = representative_configuration(analysis)
    print(f"\nMinimal representative scaled configuration: "
          f"{representative} warehouses.")
    predicted_800 = fit.scaled.predict(800)
    actual_800 = cpi[-1]
    print(f"Extrapolating the scaled-region line to 800W: "
          f"CPI {predicted_800:.2f} predicted vs {actual_800:.2f} measured "
          f"({abs(predicted_800 - actual_800) / actual_800:.1%} error).")
    print("\nConclusion (the paper's): simulate a configuration just above "
          "the pivot;\nbehaviors of much larger setups extrapolate along "
          "the scaled-region line.")


if __name__ == "__main__":
    main()
