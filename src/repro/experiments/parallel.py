"""One sweep driver over two executors: the in-process pool and the fabric.

Every (W, C, P) point is a fully seeded, deterministic computation: the
seed tree (:class:`~repro.sim.randomness.RandomStreams`) is derived from
the configuration alone, so two runs of the same point — in the same
process, in another process, on another machine — produce bit-identical
:class:`~repro.experiments.records.ConfigResult` payloads.  A sweep is
therefore embarrassingly parallel, and the only hard part is the
harness: every point must be measured exactly once whatever fails
underneath it (DESIGN.md §8).

:func:`run_points` is the one driver.  It owns everything that does not
depend on *where* a point runs:

- per-point state and attempts, deterministic backoff
  (:func:`backoff_delay`) and :class:`SweepFailure` once a point's
  retry budget (:class:`SupervisorPolicy`) is spent;
- deadlines: at most :meth:`Executor.slots` points are in flight, so a
  point's ``point_timeout_s`` budget starts when it is dispatched, is
  flagged ``point-straggling`` at half and cancelled when spent;
- completion dedup (a point completes once; late copies are dropped),
  the ``on_result`` hook and the metrics-registry merge;
- the ``REPRO_SERIAL`` check and the degradation ladder: a fabric that
  loses its fleet falls back to the local pool (``local-fallback``),
  and a pool that keeps breaking falls back to in-process execution
  (``serial-fallback``).

:func:`run_sweep` adds the journal on top: it takes the journal's owner
lock, runs only the points the journal does not hold, records each one
from this process as it completes, and merges everything in grid order.

An :class:`Executor` is a small state machine the driver polls:
:class:`PoolExecutor` (one ``ProcessPoolExecutor``, rebuilt when a
worker dies) here, and :class:`~repro.fabric.coordinator.FabricCoordinator`
(leases to worker processes over stdio or TCP).  Pool and fabric
workers both run :func:`execute_point`, and both honour the one
:class:`~repro.fabric.chaos.FabricChaosPolicy` for fault injection.

Safety rules that hold for every executor:

- **Results are ordered by the input grid**, never by completion order.
- **Workers share the result cache directory.**  ``ResultCache.store``
  publishes through a per-process temp file and ``os.replace``, which is
  atomic on POSIX, so concurrent writers of the same key can only race
  toward identical bytes.
- **Journal appends happen only in the driver's process**, so JSONL
  lines can never interleave.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.experiments.configs import (
    DEFAULT_SETTINGS,
    RunnerSettings,
    client_count,
)
from repro.experiments.records import ConfigResult, ResultCache
from repro.experiments.resilience import SweepJournal
from repro.experiments.runner import (
    configuration_key,
    default_cache,
    last_manifest,
    run_configuration,
)
from repro.faults import FaultPlan
from repro.hw.machine import MachineConfig, XEON_MP_QUAD
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.manifest import RunManifest
from repro.workload import WorkloadSpec

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable forcing every parallel entry point serial.
SERIAL_ENV = "REPRO_SERIAL"

#: Pool-level failures: a worker dying (OOM kill, sandbox signal) breaks
#: the pool, an environment that cannot fork raises ``OSError``, and a
#: pool torn down under a submit raises ``RuntimeError``.
_POOL_FAILURES = (BrokenProcessPool, OSError, RuntimeError)


@dataclass(frozen=True)
class RunSpec:
    """One fully resolved configuration to run (picklable work unit)."""

    warehouses: int
    processors: int
    clients: Optional[int] = None
    machine: MachineConfig = XEON_MP_QUAD
    settings: RunnerSettings = DEFAULT_SETTINGS
    faults: Optional[FaultPlan] = None
    #: Declarative workload the point runs (``None`` = built-in standard
    #: mix).  The *spec* ships across the process boundary — workers
    #: compile it locally via the memoized ``compile_workload``.
    workload: Optional[WorkloadSpec] = None

    @property
    def resolved_clients(self) -> int:
        """Explicit client count, or the paper's scaling rule default."""
        if self.clients is not None:
            return self.clients
        return client_count(self.warehouses, self.processors)

    def key(self) -> str:
        """The cache/journal key this spec runs under."""
        return configuration_key(self.machine, self.warehouses,
                                 self.resolved_clients, self.processors,
                                 self.settings, self.faults, self.workload)

    @property
    def label(self) -> str:
        """Human-readable point name (report/trace track titles)."""
        text = (f"{self.machine.name} W={self.warehouses} "
                f"C={self.resolved_clients} P={self.processors}")
        if self.faults is not None:
            text += " faulted"
        if self.workload is not None:
            text += f" workload={self.workload.name}"
        return text


@dataclass(frozen=True)
class PointTelemetry:
    """One sweep point's result plus the telemetry its run produced.

    What every executor returns per point.  ``trace`` and ``metrics``
    are *serialized* payloads (:meth:`repro.obs.tracing.Tracer.to_dict`
    / :meth:`repro.obs.metrics.MetricsRegistry.to_dict`) so the object
    pickles across the process boundary, and are ``None`` unless the
    sweep asked for tracing.  A cache-hit point carries the stored
    manifest but an empty trace — it never simulated.
    """

    spec: RunSpec
    result: ConfigResult
    manifest: Optional[RunManifest] = None
    trace: Optional[dict] = None
    metrics: Optional[dict] = None
    #: Fabric worker id that produced the point (:mod:`repro.fabric`);
    #: empty when the point ran locally (pool or in-process).
    worker: str = ""

    @property
    def label(self) -> str:
        """The spec's human-readable point name."""
        return self.spec.label

    @property
    def cache_hit(self) -> bool:
        """True when the point was served from cache (nothing traced)."""
        if self.metrics is None:
            return False
        return self.metrics.get("counters", {}).get("cache.hits", 0) > 0


#: ``REPRO_SERIAL`` spellings that force the serial path.  Anything
#: else — including garbage like ``REPRO_SERIAL=banana`` — is treated
#: as "not set" rather than silently flipping execution policy.
_SERIAL_TRUTHY = frozenset({"1", "true", "yes", "on"})


def serial_forced() -> bool:
    """True when the environment forces serial execution.

    ``REPRO_SERIAL`` accepts the usual truthy spellings
    (``1``/``true``/``yes``/``on``, case-insensitive, whitespace
    ignored); unrecognized values do not force serial.
    """
    value = os.environ.get(SERIAL_ENV)
    if value is None:
        return False
    return value.strip().lower() in _SERIAL_TRUTHY


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Worker count after policy: ``REPRO_SERIAL=1`` wins, ``None``
    means one worker per CPU, and the result is always >= 1."""
    if serial_forced():
        return 1
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# ----------------------------------------------------------------------
# supervision policy


class ChaosError(RuntimeError):
    """A worker was poisoned by the chaos policy (test-only failure)."""


class SweepFailure(RuntimeError):
    """One point exhausted its retry budget; the sweep cannot complete.

    Carries the point's cache key, the attempts consumed, and the last
    error, so an unattended multi-hour sweep fails diagnosably.
    """

    def __init__(self, key: str, attempts: int, last_error: BaseException):
        self.key = key
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"sweep point {key!r} failed after {attempts} attempt(s): "
            f"{last_error!r}")


@dataclass(frozen=True)
class SupervisorPolicy:
    """The driver's knobs: retry budget, backoff shape, deadlines, health.

    ``max_retries`` is the number of *re*-attempts a point may consume
    beyond its first try, across every rung of the degradation ladder.
    ``point_timeout_s`` bounds one dispatched attempt (``None`` disables
    deadlines; it cannot be enforced in-process).  Backoff for attempt
    ``n`` (1-based) is
    ``min(base_backoff_s * backoff_factor**(n-1), max_backoff_s)`` plus
    a deterministic jitter in ``[0, base_backoff_s)`` seeded from the
    spec key (:func:`backoff_delay`).  ``failure_threshold`` pool breaks
    exhaust the pool, and as many strikes quarantine a fabric worker.
    ``tick_s`` is the driver's polling interval.
    """

    max_retries: int = 3
    point_timeout_s: Optional[float] = None
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    failure_threshold: int = 3
    tick_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be positive (or None)")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")


def _unit_hash(*parts) -> float:
    """Deterministic hash of ``parts`` mapped into [0, 1)."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def backoff_delay(key: str, attempt: int, policy: SupervisorPolicy) -> float:
    """Backoff before retry ``attempt`` (1-based) of the point ``key``.

    Exponential in the attempt number, capped, plus a jitter drawn
    deterministically from (key, attempt) — two processes retrying the
    same point desynchronize, yet the same sweep replays identically.
    """
    base = min(policy.base_backoff_s * policy.backoff_factor ** (attempt - 1),
               policy.max_backoff_s)
    jitter = _unit_hash("backoff", key, attempt) * policy.base_backoff_s
    return base + jitter


# ----------------------------------------------------------------------
# running one point


def execute_point(spec: RunSpec, cache_dir: Optional[str], use_cache: bool,
                  trace: bool = False, worker_count: int = 1
                  ) -> PointTelemetry:
    """Run one spec against an explicit cache directory.

    The one function pool workers, fabric workers and the in-process
    path all run.  Each process builds its own :class:`ResultCache`
    handle on the shared directory, which is safe because ``store``
    publishes atomically; ``worker_count`` is stamped into the run's
    manifest.  With ``trace`` the run gets a *fresh* tracer and metrics
    registry, restoring whatever was active before (the in-process path
    runs in a parent that may itself be tracing), and ships both back
    serialized; without it nothing is traced.
    """
    cache = ResultCache(Path(cache_dir)) if cache_dir is not None else None

    def run() -> ConfigResult:
        return run_configuration(
            spec.warehouses, spec.processors, clients=spec.clients,
            machine=spec.machine, settings=spec.settings,
            use_cache=use_cache, faults=spec.faults, cache=cache,
            worker_count=worker_count, workload=spec.workload)

    if not trace:
        result = run()
        return PointTelemetry(spec=spec, result=result,
                              manifest=last_manifest())
    prev_tracer = _tracing.current_tracer()
    prev_registry = _metrics.current_registry()
    tracer = _tracing.enable_tracing(_tracing.Tracer())
    registry = _metrics.enable_metrics(_metrics.MetricsRegistry(
        os.environ.get(_metrics.METRICS_PATH_ENV)))
    try:
        result = run()
    finally:
        if prev_tracer is not None:
            _tracing.enable_tracing(prev_tracer)
        else:
            _tracing.disable_tracing()
        if prev_registry is not None:
            _metrics.enable_metrics(prev_registry)
        else:
            _metrics.disable_metrics()
    return PointTelemetry(
        spec=spec,
        result=result,
        manifest=last_manifest(),
        # A cache hit never opens a span; ship a falsy trace so track
        # builders and reports skip the point instead of rendering an
        # empty timeline.
        trace=tracer.to_dict() if tracer.roots else {},
        metrics=registry.to_dict(),
    )


def _pool_worker(spec: RunSpec, cache_dir: Optional[str], use_cache: bool,
                 trace: bool, worker_count: int, attempt: int,
                 chaos) -> PointTelemetry:
    """Pool worker: apply chaos (if armed), then run the point.

    Top-level so it pickles by reference.  ``kill`` exits the worker
    outright (breaking the pool), ``hang`` stalls it for the chaos
    ``delay_s``, ``poison`` raises :class:`ChaosError`; the fabric-only
    faults do nothing in a pool.
    """
    action = chaos.action(spec.key(), attempt) if chaos is not None else None
    if action == "kill":
        os._exit(17)
    elif action == "hang":
        time.sleep(chaos.delay_s)
    elif action == "poison":
        raise ChaosError(f"chaos poisoned {spec.key()} attempt {attempt}")
    return execute_point(spec, cache_dir, use_cache, trace, worker_count)


def _kill_pool(pool: ProcessPoolExecutor,
               join_timeout_s: float = 5.0) -> None:
    """Tear a pool down hard: terminate, join bounded, escalate to kill.

    Used for hung workers (a graceful shutdown would join them forever)
    and broken pools.  Terminated workers are *joined* with a bounded
    timeout and SIGKILLed if they ignore the terminate — without the
    join, every chaos-induced teardown leaks a zombie until the parent
    exits.  The executor's manager thread joins the workers too once it
    sees one die, and a thread that loses that ``waitpid`` race reads a
    reaped child as still alive (ECHILD) until the winner records its
    exit code; so the manager thread is joined before the final reap.
    Touches the executor's process table and manager thread, which are
    stdlib-internal but stable across supported versions; every step is
    best-effort.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    # Taken before shutdown(), which drops the executor's reference.
    manager = getattr(pool, "_executor_manager_thread", None)
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    deadline = time.monotonic() + join_timeout_s
    for process in processes:
        try:
            process.join(max(0.05, deadline - time.monotonic()))
        except Exception:  # pragma: no cover - already reaped
            pass
    for process in processes:
        try:
            if process.is_alive():
                process.kill()
                process.join(join_timeout_s)
        except Exception:  # pragma: no cover - already reaped
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken executor state
        pass
    if manager is not None:
        manager.join(join_timeout_s)
        for process in processes:
            try:
                process.join(join_timeout_s)
            except Exception:  # pragma: no cover - already reaped
                pass


# ----------------------------------------------------------------------
# the executor interface


_WAITING, _RUNNING, _DONE = "waiting", "running", "done"


class SweepPoint:
    """Driver-side state of one sweep point across its attempts.

    Executors read ``spec``/``key``/``attempt``/``state`` and hand the
    point back in their outcomes; only the driver changes its state
    (and :meth:`dispatched`, which an executor may call when it
    re-grants a point on its own, as a reconnecting fabric worker does).
    """

    __slots__ = ("index", "spec", "key", "attempt", "state", "not_before",
                 "deadline", "timeout_s", "straggling")

    def __init__(self, index: int, spec: RunSpec,
                 timeout_s: Optional[float]):
        self.index = index
        self.spec = spec
        self.key = spec.key()
        self.attempt = 0
        self.state = _WAITING
        self.not_before = 0.0
        self.deadline: Optional[float] = None
        self.timeout_s = timeout_s
        self.straggling = False

    @property
    def running(self) -> bool:
        """True while an attempt of this point is in flight."""
        return self.state == _RUNNING

    @property
    def done(self) -> bool:
        """True once the point has completed."""
        return self.state == _DONE

    def dispatched(self, now: float) -> None:
        """Mark an attempt in flight; its deadline starts now."""
        self.state = _RUNNING
        self.straggling = False
        self.deadline = (now + self.timeout_s
                         if self.timeout_s is not None else None)


@dataclass(frozen=True)
class RunOptions:
    """What every point of one driver run shares."""

    use_cache: bool
    cache_dir: Optional[str]
    trace: bool
    policy: SupervisorPolicy


def _emit(events: list, prefix: str, kind: str, fields: dict) -> None:
    record = {"seq": len(events), "event": kind}
    record.update(fields)
    events.append(record)
    if _metrics.ACTIVE:
        _metrics.inc(f"{prefix}.{kind.replace('-', '_')}")
        _metrics.emit(f"{prefix}-{kind}", **fields)


class Executor:
    """A place points run, as the driver sees it.

    The driver calls ``open(options, points)`` once per run, then loops:
    while the executor is ``usable()``, it ``submit(point)`` s at most
    ``slots()`` ready points (``submit`` returns False when the point
    did not start), collects ``poll(timeout)`` outcomes — ``(point,
    payload)`` on completion, ``(point, error)`` on failure — and
    ``cancel(point)`` s a point whose deadline passed (the failure
    arrives through a later ``poll``).  ``close()`` always runs last.
    When the executor gives out, the driver emits :attr:`fallback_event`
    and continues on :meth:`fallback` (``None`` = in-process).

    ``events`` is the ordered degradation timeline — the executor's own
    events plus the driver's (``point-retry``, ``point-straggling``,
    fallbacks) — mirrored to ``<name>.*`` metrics counters and
    ``<name>-*`` stream events when a registry is active.
    """

    name = "executor"
    fallback_event = "serial-fallback"

    def __init__(self, chaos=None):
        #: Test-only :class:`~repro.fabric.chaos.FabricChaosPolicy`.
        self.chaos = chaos
        self.events: list[dict] = []

    def _event(self, kind: str, **fields) -> None:
        _emit(self.events, self.name, kind, fields)

    def fallback(self) -> Optional["Executor"]:
        """The next rung of the degradation ladder (None = in-process)."""
        return None


class PoolExecutor(Executor):
    """Points across one local ``ProcessPoolExecutor``.

    A worker that dies (``BrokenProcessPool``) or a point that overstays
    its deadline (a hung worker cannot be interrupted individually)
    tears the whole pool down with :func:`_kill_pool`; every point in
    flight on it fails and is retried, and the pool is rebuilt on the
    next submit (``pool-rebuild``).  After ``failure_threshold`` such
    breaks in one run the pool is exhausted and the driver finishes
    in-process.
    """

    name = "pool"

    def __init__(self, jobs: Optional[int] = None, chaos=None):
        super().__init__(chaos)
        self.jobs = jobs
        self._width = 1
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: dict = {}
        self._outcomes: list = []
        self._failures = 0
        self._options: Optional[RunOptions] = None

    def open(self, options: RunOptions, points: int) -> None:
        """Size the pool for the run; the pool itself starts on submit."""
        self._options = options
        self._width = max(1, min(effective_jobs(self.jobs), points))
        self._failures = 0

    def slots(self) -> int:
        """Free workers: the width less the points in flight."""
        return self._width - len(self._futures)

    def usable(self) -> bool:
        """True until ``failure_threshold`` breaks in this run."""
        return self._failures < self._options.policy.failure_threshold

    def submit(self, point: SweepPoint) -> bool:
        """Submit to the pool (built on demand); a refusal breaks it."""
        options = self._options
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self._width)
            future = self._pool.submit(
                _pool_worker, point.spec, options.cache_dir,
                options.use_cache, options.trace, self._width,
                point.attempt, self.chaos)
        except _POOL_FAILURES as error:
            self._break(error, "submit failed")
            return False
        self._futures[future] = point
        return True

    def poll(self, timeout: float) -> list:
        """Finished futures; a dead worker breaks the whole pool."""
        if self._futures:
            done, _ = wait(self._futures,
                           timeout=0 if self._outcomes else timeout,
                           return_when=FIRST_COMPLETED)
            # Completed points first: a break observed on one future
            # must not discard results that already arrived.
            for future in sorted(done, key=lambda f: f.exception()
                                 is not None):
                point = self._futures.pop(future, None)
                if point is None:
                    continue  # failed by a break earlier in this loop
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    self._futures[future] = point
                    self._break(error, "worker died")
                else:
                    self._outcomes.append(
                        (point, error if error is not None
                         else future.result()))
        elif not self._outcomes:
            time.sleep(timeout)
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def cancel(self, point: SweepPoint) -> None:
        """A hung worker cannot be interrupted alone: kill the pool."""
        timeout = self._options.policy.point_timeout_s
        self._event("point-timeout", key=point.key, attempt=point.attempt,
                    timeout_s=timeout)
        self._break(TimeoutError(f"{point.key} exceeded {timeout}s"),
                    "point timeout")

    def _break(self, error: BaseException, detail: str) -> None:
        """Tear the pool down; every point still running on it fails."""
        for future, point in self._futures.items():
            finished = (future.done() and not future.cancelled()
                        and future.exception() is None)
            self._outcomes.append(
                (point, future.result() if finished else error))
        self._futures.clear()
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None
        self._failures += 1
        if self.usable():
            self._event("pool-rebuild", failures=self._failures,
                        detail=detail)

    def close(self) -> None:
        """Join idle workers; kill them if points are still in flight."""
        if self._pool is not None:
            if self._futures:
                _kill_pool(self._pool)
            else:
                self._pool.shutdown(wait=True)
            self._pool = None
        self._futures.clear()


# ----------------------------------------------------------------------
# the driver


class _Driver:
    """One run of :func:`run_points`: point state, ladder, timeline."""

    def __init__(self, specs: Sequence[RunSpec],
                 executor: Optional[Executor], options: RunOptions,
                 on_result: Optional[Callable]):
        self.options = options
        self.policy = options.policy
        self.on_result = on_result
        self.points = [SweepPoint(index, spec, self.policy.point_timeout_s)
                       for index, spec in enumerate(specs)]
        self.results: list = [None] * len(specs)
        self.remaining = len(specs)
        self.events = executor.events if executor is not None else []
        self.prefix = executor.name if executor is not None else "serial"

    def _event(self, kind: str, **fields) -> None:
        _emit(self.events, self.prefix, kind, fields)

    def run(self, executor: Optional[Executor]) -> list:
        chaos = executor.chaos if executor is not None else None
        while self.remaining and not self._in_process(executor):
            if self._drive(executor):
                break
            self._event(executor.fallback_event, remaining=self.remaining,
                        reason=f"{executor.name} exhausted")
            executor = executor.fallback()
            if executor is not None:
                executor.events = self.events
                chaos = executor.chaos
        if self.remaining:
            self._run_inline(chaos)
        return self.results

    def _in_process(self, executor: Optional[Executor]) -> bool:
        """Whether the pending points run here instead of on ``executor``.

        ``REPRO_SERIAL`` keeps a pool in-process.  So does a pool that
        would get one worker (``jobs=1``, or one pending point), unless
        a point deadline needs a worker the driver can kill.
        """
        if not isinstance(executor, PoolExecutor):
            return executor is None
        if serial_forced():
            return True
        return (min(effective_jobs(executor.jobs), self.remaining) <= 1
                and self.policy.point_timeout_s is None)

    def _drive(self, executor: Executor) -> bool:
        """Run the pending points on ``executor``; False if it gave out."""
        executor.open(self.options, self.remaining)
        try:
            while self.remaining:
                if not executor.usable():
                    for point, outcome in executor.poll(0):
                        self._settle(point, outcome)
                    return not self.remaining
                self._dispatch(executor)
                for point, outcome in executor.poll(self.policy.tick_s):
                    self._settle(point, outcome)
                self._scan_deadlines(executor)
            return True
        finally:
            executor.close()

    def _dispatch(self, executor: Executor) -> None:
        free = executor.slots()
        now = time.monotonic()
        for point in self.points:
            if free <= 0:
                return
            if point.state == _WAITING and point.not_before <= now:
                if not executor.submit(point):
                    return
                point.dispatched(now)
                free -= 1

    def _scan_deadlines(self, executor: Executor) -> None:
        timeout = self.policy.point_timeout_s
        if timeout is None:
            return
        now = time.monotonic()
        for point in self.points:
            if not point.running or point.deadline is None:
                continue
            if not point.straggling and now >= point.deadline - timeout / 2:
                point.straggling = True
                self._event("point-straggling", key=point.key,
                            attempt=point.attempt)
            if now >= point.deadline:
                point.deadline = None
                executor.cancel(point)

    def _settle(self, point: SweepPoint, outcome) -> None:
        if isinstance(outcome, BaseException):
            if point.running:
                self._retry(point, outcome)
        elif not point.done:
            self._complete(point, outcome)

    def _retry(self, point: SweepPoint, error: BaseException) -> None:
        point.attempt += 1
        point.deadline = None
        if point.attempt > self.policy.max_retries:
            raise SweepFailure(point.key, point.attempt, error)
        delay = backoff_delay(point.key, point.attempt, self.policy)
        point.state = _WAITING
        point.not_before = time.monotonic() + delay
        self._event("point-retry", key=point.key, attempt=point.attempt,
                    backoff_s=round(delay, 6), error=repr(error))

    def _complete(self, point: SweepPoint, payload: PointTelemetry) -> None:
        self.results[point.index] = payload
        point.state = _DONE
        point.deadline = None
        self.remaining -= 1
        if _metrics.ACTIVE:
            _metrics.inc(f"{self.prefix}.points_completed")
        if self.on_result is not None:
            self.on_result(point.spec, payload)

    def _run_inline(self, chaos) -> None:
        """Finish in this process, grid order; chaos ``kill``/``hang``
        degrade to ``poison`` so the parent survives its own chaos."""
        options = self.options
        for point in self.points:
            while not point.done:
                time.sleep(max(0.0, point.not_before - time.monotonic()))
                point.dispatched(time.monotonic())
                action = (chaos.action(point.key, point.attempt)
                          if chaos is not None else None)
                try:
                    if action in ("kill", "hang", "poison"):
                        raise ChaosError(f"chaos ({action}) hit {point.key} "
                                         f"attempt {point.attempt} "
                                         f"in-process")
                    payload = execute_point(point.spec, options.cache_dir,
                                            options.use_cache, options.trace)
                except Exception as error:
                    self._retry(point, error)
                    continue
                self._complete(point, payload)


def run_points(specs: Sequence[RunSpec], executor: Optional[Executor] = None,
               *, policy: Optional[SupervisorPolicy] = None,
               trace: bool = False, use_cache: bool = True,
               cache_dir: Optional[Union[str, Path]] = None,
               on_result: Optional[Callable[[RunSpec, PointTelemetry],
                                            None]] = None
               ) -> list[PointTelemetry]:
    """Run every spec to completion on ``executor``; grid order kept.

    ``executor=None`` runs in this process.  ``on_result(spec, point)``
    fires here, exactly once per point, as points complete (completion
    order) — the hook journals and incremental snapshots use.  With
    ``trace`` every point ships its span tree and metrics, and when a
    metrics registry is active here, every point's counters merge into
    it, so sweep totals aggregate exactly as they would serially.
    Raises :class:`SweepFailure` when a point exhausts
    ``policy.max_retries``.
    """
    options = RunOptions(
        use_cache=use_cache,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        trace=trace, policy=policy or SupervisorPolicy())
    points = _Driver(specs, executor, options, on_result).run(executor)
    registry = _metrics.current_registry()
    if trace and registry is not None:
        for point in points:
            if point.metrics:
                registry.merge(point.metrics)
    return points


def run_sweep(warehouse_grid, processors: int,
              machine: MachineConfig = XEON_MP_QUAD,
              settings: RunnerSettings = DEFAULT_SETTINGS,
              clients_fn=None, use_cache: bool = True,
              faults: Optional[FaultPlan] = None,
              workload: Optional[WorkloadSpec] = None, *,
              executor: Optional[Executor] = None,
              policy: Optional[SupervisorPolicy] = None,
              trace: bool = False,
              cache_dir: Optional[Union[str, Path]] = None,
              journal: Optional[Union[SweepJournal, str, Path]] = None
              ) -> list[PointTelemetry]:
    """A warehouse sweep through :func:`run_points`, with a journal.

    Results are bit-identical to the serial
    :func:`repro.experiments.runner.sweep`.  With a ``journal`` the
    sweep holds the journal's owner lock throughout: a second live
    owner raises :class:`~repro.experiments.resilience.JournalOwnershipError`,
    a dead owner's stale lock is broken.  Points already journaled are
    reused without running (their manifests come from the cache; they
    carry no trace, like any cache hit), the rest run and are journaled
    from this process as they complete — one append stream, each point
    exactly once, whichever executor computed it.
    """
    specs = [RunSpec(warehouses=warehouses, processors=processors,
                     clients=(clients_fn(warehouses, processors)
                              if clients_fn is not None else None),
                     machine=machine, settings=settings, faults=faults,
                     workload=workload)
             for warehouses in warehouse_grid]
    run = dict(policy=policy, trace=trace, use_cache=use_cache,
               cache_dir=cache_dir)
    if journal is None:
        return run_points(specs, executor, **run)
    if not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)
    journal.acquire()
    try:
        completed = journal.load()
        pending = [spec for spec in specs if spec.key() not in completed]
        fresh = run_points(
            pending, executor, **run,
            on_result=lambda spec, point: journal.record(spec.key(),
                                                         point.result))
    finally:
        journal.release()
    by_key = {point.spec.key(): point for point in fresh}
    cache = (ResultCache(Path(cache_dir)) if cache_dir is not None
             else default_cache())
    return [by_key.get(spec.key()) or PointTelemetry(
                spec=spec, result=completed[spec.key()],
                manifest=cache.load_manifest(spec.key()),
                trace={} if trace else None)
            for spec in specs]


# ----------------------------------------------------------------------
# stable names over the driver
#
# ``run_many`` and ``run_telemetry`` keep their historical signatures
# and return types because the committed perf harness
# (benchmarks/perf/session.py) imports them and the figure experiments
# call ``run_many``; ``sweep_telemetry`` is the name the resilience
# tests import.  Each is one call into the driver.


def _run_local(specs: Sequence[RunSpec], jobs: Optional[int],
               **run) -> list[PointTelemetry]:
    """:func:`run_points` on a local pool.  A point that fails every
    attempt raises its own last error, as these entry points always
    have, rather than :class:`SweepFailure`."""
    try:
        return run_points(specs, PoolExecutor(jobs), **run)
    except SweepFailure as failure:
        raise failure.last_error from failure


def run_many(specs: Sequence[RunSpec], jobs: Optional[int] = None,
             use_cache: bool = True,
             cache_dir: Optional[Union[str, Path]] = None,
             on_result: Optional[Callable[[RunSpec, ConfigResult],
                                          None]] = None
             ) -> list[ConfigResult]:
    """:func:`run_points` on the local pool, results only."""
    return [point.result for point in _run_local(
        specs, jobs, use_cache=use_cache, cache_dir=cache_dir,
        on_result=on_result and (
            lambda spec, point: on_result(spec, point.result)))]


def run_telemetry(specs: Sequence[RunSpec], jobs: Optional[int] = None,
                  use_cache: bool = True,
                  cache_dir: Optional[Union[str, Path]] = None,
                  on_result: Optional[Callable[[RunSpec, PointTelemetry],
                                               None]] = None
                  ) -> list[PointTelemetry]:
    """:func:`run_points` on the local pool, traced."""
    return _run_local(specs, jobs, trace=True, use_cache=use_cache,
                      cache_dir=cache_dir, on_result=on_result)


def sweep_telemetry(warehouse_grid, processors: int,
                    jobs: Optional[int] = None, **sweep
                    ) -> list[PointTelemetry]:
    """:func:`run_sweep` on the local pool, traced."""
    return run_sweep(warehouse_grid, processors, trace=True,
                     executor=PoolExecutor(jobs), **sweep)


# ----------------------------------------------------------------------
# generic fan-out


def _call_item(fn: Callable[[T], R], item: T) -> R:
    """Pool worker for :func:`map_parallel` (top-level, picklable)."""
    return fn(item)


def map_parallel(fn: Callable[[T], R], items: Sequence[T],
                 jobs: Optional[int] = None) -> list[R]:
    """``[fn(item) for item in items]`` across a process pool.

    ``fn`` must be a top-level function and each item picklable; item
    order is preserved.  Used for coarse-grained independent work that
    is not a single configuration run — e.g. Table 1's per-(P, W)
    saturation searches, each of which is internally sequential.
    Degrades to the list comprehension on ``REPRO_SERIAL=1``, one CPU,
    or pool breakage.
    """
    workers = min(effective_jobs(jobs), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_call_item, fn, item): index
                       for index, item in enumerate(items)}
            results: list[Optional[R]] = [None] * len(items)
            for future in as_completed(futures):
                results[futures[future]] = future.result()
            return results  # type: ignore[return-value]
    except (BrokenProcessPool, OSError):
        return [fn(item) for item in items]
