"""The coupled configuration runner.

One configuration run is a fixed point between two layers:

1. the **system DES** needs seconds-per-instruction (CPI / F) to convert
   instruction segments into CPU time;
2. the **microarchitecture model** needs the DES's behavior (IPX split,
   reads and context switches per transaction) to generate the reference
   stream whose cache behavior determines CPI.

The runner alternates the two until the CPI stabilizes — two to three
rounds suffice because the coupling is mild — and then evaluates the
iron law with the converged values.

Resilience (see :mod:`repro.experiments.resilience`): every iterate
passes a :class:`~repro.experiments.resilience.ConvergenceGuard`
(NaN/oscillation detection with a damping fallback, raising a
structured ``ConvergenceError`` when the fixed point diverges), an
optional wall-clock watchdog bounds each configuration, and a
:class:`~repro.faults.FaultPlan` can be threaded through to run the same
configuration on a degraded substrate; faulted results are cached under
a separate key.  Running more than one configuration — sweeps, their
journal and resume — is :mod:`repro.experiments.parallel`'s job.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import Optional

from repro.core.cpi_model import solve_cpi
from repro.core.ironlaw import tps as ironlaw_tps
from repro.experiments.configs import (
    DEFAULT_SETTINGS,
    RunnerSettings,
    client_count,
)
from repro.experiments.records import ConfigResult, ResultCache
from repro.experiments.resilience import ConvergenceGuard, WatchdogTimeout
from repro.faults import FaultPlan, publish_fault_metrics
from repro.hw.machine import MachineConfig, XEON_MP_QUAD
from repro.hw.trace import TraceGenerator, TraceProfile
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.manifest import RunManifest, environment_fields
from repro.odb.system import OdbConfig, OdbSystem
from repro.sim.randomness import RandomStreams
from repro.workload import CompiledWorkload, WorkloadSpec, compile_workload

#: Process-wide default result cache, created lazily by
#: :func:`default_cache` (honoring ``REPRO_CACHE_DIR``).  Injectable:
#: every entry point below takes an explicit ``cache`` parameter, so
#: parallel workers and tests can point at isolated directories instead
#: of sharing this one.
_CACHE: Optional[ResultCache] = None

#: Manifest of the most recent :func:`run_configuration` call in this
#: process (set on both computed and cache-hit paths; None before the
#: first run or when a cache hit has no stored manifest).
_LAST_MANIFEST: Optional[RunManifest] = None


def last_manifest() -> Optional[RunManifest]:
    """The :class:`RunManifest` of the last run in this process."""
    return _LAST_MANIFEST


def default_cache() -> ResultCache:
    """The process-wide :class:`ResultCache`.

    Created on first use; the ``REPRO_CACHE_DIR`` environment variable
    (read at creation time) overrides the repository-default directory,
    which is how pool workers inherit a redirected cache.
    """
    global _CACHE
    if _CACHE is None:
        directory = os.environ.get("REPRO_CACHE_DIR")
        _CACHE = ResultCache(Path(directory) if directory else None)
    return _CACHE


def settings_fingerprint(settings: RunnerSettings) -> str:
    """Short stable hash of the fidelity settings (cache key part).

    Only fidelity-bearing fields participate: operational knobs like the
    wall-clock watchdog change when a run *aborts*, never what it
    computes, so they must not churn cache keys.
    """
    text = repr((settings.warmup_txns, settings.measure_txns,
                 settings.trace_txns, settings.trace_warmup,
                 settings.fixed_point_rounds, settings.seed,
                 settings.time_limit_s))
    return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


def _compiled_workload(
        workload: Optional[WorkloadSpec]) -> Optional[CompiledWorkload]:
    """Compile a spec for a run; ``None`` stays the built-in default."""
    if workload is None:
        return None
    return compile_workload(workload)


def _workload_key_part(
        compiled: Optional[CompiledWorkload]) -> Optional[str]:
    """The cache-key contribution of a workload.

    A spec whose compiled form is indistinguishable from the built-in
    default (``is_standard``) contributes nothing, so ``--workload
    odb-standard`` shares the default path's cache entries — the
    bit-identity contract made operational.
    """
    if compiled is None or compiled.is_standard:
        return None
    return compiled.fingerprint()


def configuration_key(machine: MachineConfig, warehouses: int, clients: int,
                      processors: int, settings: RunnerSettings,
                      faults: Optional[FaultPlan] = None,
                      workload: Optional[WorkloadSpec] = None) -> str:
    """The cache/journal key of one fully resolved configuration."""
    return ResultCache.key_for(
        machine.name, warehouses, clients, processors,
        settings_fingerprint(settings),
        faults.fingerprint() if faults is not None else None,
        _workload_key_part(_compiled_workload(workload)))


def run_configuration(warehouses: int, processors: int,
                      clients: Optional[int] = None,
                      machine: MachineConfig = XEON_MP_QUAD,
                      settings: RunnerSettings = DEFAULT_SETTINGS,
                      use_cache: bool = True,
                      faults: Optional[FaultPlan] = None,
                      cache: Optional[ResultCache] = None,
                      worker_count: int = 1,
                      workload: Optional[WorkloadSpec] = None) -> ConfigResult:
    """Run one (W, C, P) configuration end-to-end.

    ``clients`` defaults to the Table 1 client count for (W, P).
    ``faults`` injects a :class:`~repro.faults.FaultPlan` into the
    system DES; the microarchitecture model sees only the resulting
    behavior shift (IPX, reads, switches), which is exactly how a real
    degraded substrate would reach the hardware counters.
    ``cache`` overrides the process-wide :func:`default_cache` (parallel
    workers and tests use this for isolated cache directories).
    ``worker_count`` is recorded in the run's manifest (the pool width
    of the sweep the run belonged to); it never changes what is
    computed.

    Observability (DESIGN.md §9): a :class:`~repro.obs.manifest.RunManifest`
    is built for every computed run and persisted beside the cached
    result (``<key>.manifest.json``); when tracing is enabled
    (:func:`repro.obs.enable_tracing`) the hot phases — the system DES,
    trace generation, and CPI solve of each fixed-point round — open
    nested spans with counter totals attached.  With tracing disabled
    the run is bit-identical to an uninstrumented build (golden-pinned).

    Raises :class:`~repro.experiments.resilience.ConvergenceError` when
    the CPI fixed point diverges and
    :class:`~repro.experiments.resilience.WatchdogTimeout` when
    ``settings.wall_clock_limit_s`` is exceeded between coupled rounds.
    """
    global _LAST_MANIFEST
    if clients is None:
        clients = client_count(warehouses, processors)
    if cache is None:
        cache = default_cache()
    compiled = _compiled_workload(workload)
    key = configuration_key(machine, warehouses, clients, processors,
                            settings, faults, workload)
    if use_cache:
        cached = cache.load(key)
        if cached is not None:
            _LAST_MANIFEST = cache.load_manifest(key)
            return cached

    context = (f"{machine.name} W={warehouses} C={clients} P={processors}"
               + (" faulted" if faults is not None else "")
               + (f" workload={compiled.name}" if compiled is not None
                  and not compiled.is_standard else ""))
    started = time.monotonic()
    started_cpu = time.process_time()
    if _metrics.ACTIVE:
        _metrics.inc("runner.runs_started")
        _metrics.emit("run-started", key=key, machine=machine.name,
                      warehouses=warehouses, clients=clients,
                      processors=processors, seed=settings.seed,
                      faulted=faults is not None)
    guard = ConvergenceGuard(context=context)
    user_cpi, os_cpi = 2.5, 2.0
    system_metrics = None
    rates = None
    solution = None
    # Per-round fixed-point trajectory for the manifest: descriptive
    # metadata (never a cache-key or golden input), recorded always —
    # two or three small dicts per run.
    round_deltas: list[dict] = []
    with _tracing.span("run-configuration") as run_span:
        if run_span is not None:
            run_span.counters.update({
                "warehouses": warehouses, "clients": clients,
                "processors": processors, "seed": settings.seed})
        for round_index in range(settings.fixed_point_rounds):
            round_started = time.monotonic()
            if settings.wall_clock_limit_s is not None and round_index > 0:
                elapsed = time.monotonic() - started
                if elapsed > settings.wall_clock_limit_s:
                    raise WatchdogTimeout(settings.wall_clock_limit_s,
                                          elapsed, context=context)
            with _tracing.span(f"fixed-point-round-{round_index}"):
                config = OdbConfig(
                    warehouses=warehouses,
                    clients=clients,
                    processors=processors,
                    machine=machine,
                    seed=settings.seed,
                    user_cpi=user_cpi,
                    os_cpi=os_cpi,
                    faults=faults,
                    workload=compiled,
                )
                with _tracing.span("system-des") as span:
                    system_metrics = OdbSystem(config).run(
                        warmup_txns=settings.warmup_txns,
                        measure_txns=settings.measure_txns,
                        time_limit_s=settings.time_limit_s,
                    )
                    if span is not None:
                        span.count("transactions",
                                   system_metrics.transactions)
                        span.count("tps", system_metrics.tps)
                profile = TraceProfile(
                    warehouses=warehouses,
                    processors=processors,
                    clients=clients,
                    user_ipx=system_metrics.user_ipx,
                    os_ipx=system_metrics.os_ipx,
                    reads_per_txn=system_metrics.reads_per_txn,
                    context_switches_per_txn=(
                        system_metrics.context_switches_per_txn),
                )
                generator = TraceGenerator(
                    machine, profile,
                    RandomStreams(settings.seed).fork(
                        f"trace-round{round_index}"))
                with _tracing.span("trace-generation") as span:
                    rates = generator.run(settings.trace_txns,
                                          warmup=settings.trace_warmup)
                    if span is not None:
                        span.counters.update(
                            generator.counts().as_counter_dict())
                with _tracing.span("solve-cpi") as span:
                    solution = solve_cpi(rates, machine, processors)
                    if span is not None:
                        span.count("iterations", solution.iterations)
                        span.count("cpi", solution.cpi)
                user_cpi, os_cpi = guard.admit(solution.user_cpi,
                                               solution.os_cpi)
            previous = round_deltas[-1] if round_deltas else None
            record = {
                "round": round_index,
                "tps": system_metrics.tps,
                "cpi": solution.cpi,
                "user_cpi": solution.user_cpi,
                "os_cpi": solution.os_cpi,
                "tps_delta": (system_metrics.tps - previous["tps"]
                              if previous is not None else None),
                "cpi_delta": (solution.cpi - previous["cpi"]
                              if previous is not None else None),
            }
            round_deltas.append(record)
            if _metrics.ACTIVE:
                _metrics.inc("runner.rounds")
                _metrics.observe("runner.round_s",
                                 time.monotonic() - round_started)
                _metrics.emit("round-completed", key=key, **record)

    assert system_metrics is not None and rates is not None \
        and solution is not None
    effective_cpi = ((system_metrics.user_ipx * solution.user_cpi
                      + system_metrics.os_ipx * solution.os_cpi)
                     / system_metrics.ipx)
    result = ConfigResult(
        machine=machine.name,
        warehouses=warehouses,
        clients=clients,
        processors=processors,
        system=system_metrics,
        rates=rates,
        cpi=solution,
        tps_ironlaw=ironlaw_tps(processors, machine.frequency_hz,
                                system_metrics.ipx, effective_cpi),
        fixed_point_rounds=settings.fixed_point_rounds,
    )
    manifest = RunManifest(
        config_key=key,
        machine=machine.name,
        warehouses=warehouses,
        clients=clients,
        processors=processors,
        seed=settings.seed,
        settings_fingerprint=settings_fingerprint(settings),
        fault_fingerprint=(faults.fingerprint()
                           if faults is not None else None),
        workload=(compiled.name if compiled is not None else "odb-standard"),
        workload_fingerprint=(compiled.fingerprint()
                              if compiled is not None else None),
        worker_count=max(1, worker_count),
        wall_time_s=time.monotonic() - started,
        cpu_time_s=time.process_time() - started_cpu,
        fixed_point_rounds=settings.fixed_point_rounds,
        tracing_enabled=_tracing.tracing_enabled(),
        round_deltas=round_deltas,
        **environment_fields(),
    )
    _LAST_MANIFEST = manifest
    if use_cache:
        cache.store(key, result)
        cache.store_manifest(key, manifest)
    if _metrics.ACTIVE:
        _metrics.inc("runner.runs_finished")
        _metrics.observe("runner.run_s", manifest.wall_time_s)
        if faults is not None:
            publish_fault_metrics(faults, system_metrics)
        _metrics.emit("run-finished", key=key, tps=result.tps,
                      cpi=solution.cpi, rounds=settings.fixed_point_rounds,
                      wall_s=manifest.wall_time_s,
                      cpu_s=manifest.cpu_time_s)
    return result

