"""Compatibility names for the frozen perf harness, and nothing else.

``benchmarks/perf/session.py`` imports these two names for its
``grid-fast-fabric`` workload and may not change outside a benchmark
change.  Both forward to the local pool (``workers`` becomes ``jobs``;
``transport`` is accepted and ignored); a later benchmark change
retires this module together with that workload.
"""

from repro.experiments.parallel import run_many, run_telemetry


def fabric_run_many(specs, workers=2, transport="stdio", cache_dir=None,
                    on_result=None):
    """:func:`~repro.experiments.parallel.run_many` on ``workers`` jobs."""
    return run_many(specs, jobs=workers, cache_dir=cache_dir,
                    on_result=on_result)


def fabric_run_telemetry(specs, workers=2, transport="stdio",
                         cache_dir=None):
    """:func:`~repro.experiments.parallel.run_telemetry` on ``workers``
    jobs."""
    return run_telemetry(specs, jobs=workers, cache_dir=cache_dir)


__all__ = ["fabric_run_many", "fabric_run_telemetry"]
