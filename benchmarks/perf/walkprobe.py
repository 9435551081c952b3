"""Benchmark-side timers around the hierarchy walk.

``repro.obs.tracing`` has one span for trace generation as a whole; the
batched walk through the cache/TLB models happens inside it, in the
``SmpHierarchy`` run methods.  :func:`install` wraps those methods (and
the one-reference ``data_access``) with timers, and wraps
``TraceGenerator.run`` to publish the round's totals into the active
``repro.obs.metrics`` registry as ``perf.walk_s`` / ``perf.walk_refs``.
Publishing once per round keeps the per-call cost to two clock reads,
and lets the totals ride home with each point's metrics from pool and
fabric workers.  Installed only for traced passes: timed passes run the
program untouched.
"""

from __future__ import annotations

from time import perf_counter

from repro.hw.hierarchy import SmpHierarchy
from repro.hw.trace import TraceGenerator
from repro.obs import metrics

from ledger import WALK_REFS, WALK_SECONDS

#: Walk seconds and references since the current round began.
_totals = [0.0, 0]


def _timed_run(method):
    def timed(self, cpu, run, kernel):
        start = perf_counter()
        method(self, cpu, run, kernel)
        _totals[0] += perf_counter() - start
        _totals[1] += len(run)
    return timed


def _timed_access(method):
    def timed(self, *args, **kwargs):
        start = perf_counter()
        method(self, *args, **kwargs)
        _totals[0] += perf_counter() - start
        _totals[1] += 1
    return timed


def _publishing(method):
    def run(self, transactions, warmup=0):
        _totals[:] = [0.0, 0]
        rates = method(self, transactions, warmup)
        metrics.inc(WALK_SECONDS, _totals[0])
        metrics.inc(WALK_REFS, _totals[1])
        return rates
    return run


def install() -> None:
    """Wrap the walk methods (idempotent)."""
    if getattr(SmpHierarchy, "_walk_timed", False):
        return
    for name in ("access_run", "fetch_run", "branch_run"):
        setattr(SmpHierarchy, name, _timed_run(getattr(SmpHierarchy, name)))
    SmpHierarchy.data_access = _timed_access(SmpHierarchy.data_access)
    TraceGenerator.run = _publishing(TraceGenerator.run)
    SmpHierarchy._walk_timed = True
