"""One sweep driver over the local process pool.

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
- deadlines: at most ``jobs`` points are in flight, so a point's
  ``point_timeout_s`` budget starts when it is dispatched, is flagged
  ``point-straggling`` at half and cancelled when spent;
- the ``on_result`` hook (once per point) and the metrics-registry merge;
- the ``REPRO_SERIAL`` check and the one-rung degradation ladder: a
  pool that keeps breaking falls back to in-process execution
  (``serial-fallback``).

:func:`run_sweep` adds the journal on top: it takes the journal's owner
lock, runs only the points the journal does not hold, records each one
from this process as it completes, and merges everything in grid order.

One supervision loop holds the ``ProcessPoolExecutor`` and its futures:
it rebuilds the pool when a worker dies or a point overstays its
deadline, and its workers run :func:`execute_point` under the test-only
:class:`ChaosPolicy` and exit on their own when the driver's process
dies.  :class:`PoolExecutor` is the caller's handle on it.

Safety rules:

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
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

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
    run_with_manifest,
)
from repro.faults import FaultPlan
from repro.hw.machine import MachineConfig, XEON_MP_QUAD
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.manifest import RunManifest
from repro.workload import WorkloadSpec

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
    #: Declarative workload the point runs (``None`` = the default
    #: ``odb-standard``).  The *spec* ships across the process boundary;
    #: workers compile it locally via the memoized ``compile_workload``.
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


#: The fault kinds, in draw order.  A kind widens the cumulative draw
#: only when its probability is nonzero.
CHAOS_FAULTS = ("kill", "hang", "poison")


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded fault injector for the failure matrix (test-only).

    Each ``(key, attempt)`` draws one fault deterministically, so every
    chaos run replays identically:

    - ``kill`` — the pool worker exits mid-point, breaking the pool,
      which the driver rebuilds;
    - ``hang`` — the worker stalls ``delay_s`` before running the
      point, so the driver's ``point_timeout_s`` deadline must cancel
      and retry it;
    - ``poison`` — the point raises :class:`ChaosError`: the plain
      retry path.

    In the driver's own process all three degrade to
    :class:`ChaosError` so the parent survives its own chaos.  Chaos
    fires only on the first ``attempts`` attempts of a point, so any
    retry budget ``>= attempts`` converges; ``targets`` scopes the
    blast radius to specific cache keys.
    """

    seed: int = 0
    kill: float = 0.0
    hang: float = 0.0
    poison: float = 0.0
    attempts: int = 1
    #: How long a hung worker stalls.
    delay_s: float = 2.0
    targets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in CHAOS_FAULTS:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if sum(getattr(self, name) for name in CHAOS_FAULTS) > 1.0 + 1e-9:
            raise ValueError("fault probabilities must sum to <= 1")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        object.__setattr__(self, "targets", tuple(self.targets))

    def action(self, key: str, attempt: int) -> Optional[str]:
        """The fault to inject for this (key, attempt), or None."""
        if attempt >= self.attempts:
            return None
        if self.targets and key not in self.targets:
            return None
        # The salt predates this class; keeping it keeps every seed
        # drawing the faults it always drew.
        draw = _unit_hash("fabric-chaos", self.seed, key, attempt)
        threshold = 0.0
        for name in CHAOS_FAULTS:
            threshold += getattr(self, name)
            if draw < threshold:
                return name
        return None


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


#: Backoff before retry ``n`` (1-based) of a point is
#: ``min(BASE_BACKOFF_S * BACKOFF_FACTOR**(n-1), MAX_BACKOFF_S)`` plus a
#: deterministic jitter in ``[0, BASE_BACKOFF_S)`` (:func:`backoff_delay`).
BASE_BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 2.0
#: Pool breaks in one run after which its remaining points run in-process.
FAILURE_THRESHOLD = 3
#: Longest the supervision loop waits for a completion before it
#: dispatches backed-off points and scans deadlines again.
TICK_S = 0.02


@dataclass(frozen=True)
class SupervisorPolicy:
    """The sweep's two knobs: the retry budget and the point deadline.

    ``max_retries`` (the CLI's ``--retries``) is the number of
    *re*-attempts a point may consume beyond its first try, across every
    rung of the degradation ladder.  ``point_timeout_s``
    (``--point-timeout``) bounds one dispatched attempt (``None``
    disables deadlines; it cannot be enforced in-process).
    """

    max_retries: int = 3
    point_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be positive (or None)")


def _unit_hash(*parts) -> float:
    """Deterministic hash of ``parts`` mapped into [0, 1)."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def backoff_delay(key: str, attempt: int) -> float:
    """Backoff before retry ``attempt`` (1-based) of the point ``key``.

    Exponential in the attempt number, capped, plus a jitter drawn
    deterministically from (key, attempt) — two processes retrying the
    same point desynchronize, yet the same sweep replays identically.
    The shape is the module constants.
    """
    base = min(BASE_BACKOFF_S * BACKOFF_FACTOR ** (attempt - 1),
               MAX_BACKOFF_S)
    return base + _unit_hash("backoff", key, attempt) * BASE_BACKOFF_S


# ----------------------------------------------------------------------
# running one point


def execute_point(spec: RunSpec, cache_dir: Optional[str], use_cache: bool,
                  trace: bool = False, worker_count: int = 1
                  ) -> PointTelemetry:
    """Run one spec against an explicit cache directory.

    The one function pool workers, the in-process path and ``repro
    report`` run.  Each process builds its own :class:`ResultCache`
    handle on the shared directory, which is safe because ``store``
    publishes atomically; ``worker_count`` is stamped into the run's
    manifest.  With ``trace`` the run gets a *fresh* tracer and metrics
    registry, restoring whatever was active before (the in-process path
    runs in a parent that may itself be tracing), and ships both back
    serialized; without it nothing is traced.
    """
    cache = ResultCache(Path(cache_dir)) if cache_dir is not None else None

    def run() -> tuple[ConfigResult, Optional[RunManifest]]:
        return run_with_manifest(
            spec.warehouses, spec.processors, clients=spec.clients,
            machine=spec.machine, settings=spec.settings,
            use_cache=use_cache, faults=spec.faults, cache=cache,
            worker_count=worker_count, workload=spec.workload)

    if not trace:
        result, manifest = run()
        return PointTelemetry(spec=spec, result=result, manifest=manifest)
    prev_tracer = _tracing.current_tracer()
    prev_registry = _metrics.current_registry()
    tracer = _tracing.enable_tracing(_tracing.Tracer())
    registry = _metrics.enable_metrics(_metrics.MetricsRegistry(
        os.environ.get(_metrics.METRICS_PATH_ENV)))
    try:
        result, manifest = run()
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
        manifest=manifest,
        # A cache hit never opens a span; ship a falsy trace so track
        # builders and reports skip the point instead of rendering an
        # empty timeline.
        trace=tracer.to_dict() if tracer.roots else {},
        metrics=registry.to_dict(),
    )


#: How often a pool worker checks that the process that started it is
#: still alive.
_PARENT_POLL_S = 0.2


def _exit_with_parent() -> None:
    """Pool initializer: exit the worker once its parent process dies.

    A SIGKILLed driver never closes its pools, and each forked worker
    holds the write end of its own call queue, so it would block on
    that queue forever.  A daemon thread polls ``getppid``: the worker
    is re-parented when its parent dies, and then exits at once.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


def _pool_worker(spec: RunSpec, cache_dir: Optional[str], use_cache: bool,
                 trace: bool, worker_count: int, attempt: int,
                 chaos: Optional[ChaosPolicy]) -> PointTelemetry:
    """Pool worker: apply chaos (if armed), then run the point.

    Top-level so it pickles by reference.  ``kill`` exits the worker
    outright (breaking the pool), ``hang`` stalls it for the chaos
    ``delay_s``, ``poison`` raises :class:`ChaosError`.
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
# the supervision loop


class PoolExecutor:
    """The local process pool a sweep runs on: the caller's handle.

    ``jobs`` workers (``None``: one per CPU, capped at the points to
    run) run :func:`execute_point` under the test-only ``chaos``;
    :func:`run_points` builds, supervises and tears down one
    ``ProcessPoolExecutor`` per run.  ``events`` is the ordered
    degradation timeline of every run on this handle (``point-retry``,
    ``point-straggling``, ``point-timeout``, ``pool-rebuild``,
    ``serial-fallback``), mirrored to ``pool.*`` metrics counters and
    ``pool-*`` stream events when a registry is active.
    """

    name = "pool"

    def __init__(self, jobs: Optional[int] = None,
                 chaos: Optional[ChaosPolicy] = None):
        self.jobs = jobs
        self.chaos = chaos
        self.events: list[dict] = []


_WAITING, _RUNNING, _DONE = "waiting", "running", "done"


class SweepPoint:
    """Supervisor-side state of one sweep point across its attempts."""

    __slots__ = ("index", "spec", "key", "attempt", "state", "not_before",
                 "started", "straggling")

    def __init__(self, index: int, spec: RunSpec):
        self.index = index
        self.spec = spec
        self.key = spec.key()
        self.attempt = 0
        self.state = _WAITING
        self.not_before = 0.0
        self.started = 0.0
        self.straggling = False


class _Supervisor:
    """One run of :func:`run_points`: its points, results and timeline.

    The pending points run on the pool (:meth:`_on_pool`) unless
    ``REPRO_SERIAL`` is set, or the pool would get one worker (``jobs=1``
    or one pending point) and no point deadline needs a worker that can
    be killed.  A pool that breaks ``FAILURE_THRESHOLD`` times hands the
    rest to the in-process path (``serial-fallback``); attempts carry
    across.
    """

    def __init__(self, specs: Sequence[RunSpec],
                 executor: Optional[PoolExecutor], policy: SupervisorPolicy,
                 work: tuple, on_result: Optional[Callable]):
        self.executor = executor
        self.policy = policy
        #: ``(cache_dir, use_cache, trace)``: the arguments every
        #: point's run shares.
        self.work = work
        self.on_result = on_result
        self.points = [SweepPoint(index, spec)
                       for index, spec in enumerate(specs)]
        self.results: list = [None] * len(specs)
        self.remaining = len(specs)
        self.events = executor.events if executor is not None else []
        self.prefix = executor.name if executor is not None else "serial"

    def _event(self, kind: str, **fields) -> None:
        record = {"seq": len(self.events), "event": kind}
        record.update(fields)
        self.events.append(record)
        if _metrics.ACTIVE:
            _metrics.inc(f"{self.prefix}.{kind.replace('-', '_')}")
            _metrics.emit(f"{self.prefix}-{kind}", **fields)

    def run(self) -> list:
        executor = self.executor
        if self.remaining and executor is not None and not serial_forced():
            width = min(effective_jobs(executor.jobs), self.remaining)
            if ((width > 1 or self.policy.point_timeout_s is not None)
                    and not self._on_pool(width)):
                self._event("serial-fallback", remaining=self.remaining,
                            reason="pool exhausted")
        if self.remaining:
            self._run_inline()
        return self.results

    def _on_pool(self, width: int) -> bool:
        """Run the pending points on a pool of ``width`` workers.

        One loop holds the pool and its futures.  Each turn dispatches
        ready points up to the width, waits for the first completion,
        settles the completions, and scans deadlines.  A break — a dead
        worker, a point past its deadline (a hung worker cannot be
        interrupted alone), a refused submit — kills the pool with
        :func:`_kill_pool`, fails every point still in flight on it and
        leaves the next dispatch to build a new one (``pool-rebuild``).
        Returns False when the pool broke ``FAILURE_THRESHOLD`` times
        with points left.
        """
        chaos = self.executor.chaos
        timeout_s = self.policy.point_timeout_s
        pool: Optional[ProcessPoolExecutor] = None
        futures: dict = {}
        breaks = 0
        try:
            while self.remaining:
                broken = None  # (error, detail) of this turn's break
                now = time.monotonic()
                for point in self.points:
                    if len(futures) == width:
                        break
                    if point.state != _WAITING or point.not_before > now:
                        continue
                    try:
                        if pool is None:
                            pool = ProcessPoolExecutor(
                                max_workers=width,
                                initializer=_exit_with_parent)
                        future = pool.submit(
                            _pool_worker, point.spec, *self.work, width,
                            point.attempt, chaos)
                    except _POOL_FAILURES as error:
                        broken = (error, "submit failed")
                        break
                    futures[future] = point
                    point.state = _RUNNING
                    point.started = now
                    point.straggling = False
                if broken is None and futures:
                    done, _ = wait(futures, timeout=TICK_S,
                                   return_when=FIRST_COMPLETED)
                    # Completions settle before a break, so a dead
                    # worker never discards a result that arrived.
                    for future in done:
                        error = future.exception()
                        if isinstance(error, BrokenProcessPool):
                            broken = (error, "worker died")
                        else:
                            self._settle(futures.pop(future),
                                         error if error is not None
                                         else future.result())
                elif broken is None:
                    time.sleep(TICK_S)
                if broken is None and timeout_s is not None:
                    broken = self._scan_deadlines(futures.values(),
                                                  timeout_s)
                if broken is None:
                    continue
                error, detail = broken
                outcomes = []
                for future, point in futures.items():
                    arrived = (future.done() and not future.cancelled()
                               and future.exception() is None)
                    outcomes.append(
                        (point, future.result() if arrived else error))
                futures.clear()
                if pool is not None:
                    _kill_pool(pool)
                    pool = None
                breaks += 1
                if breaks < FAILURE_THRESHOLD:
                    self._event("pool-rebuild", failures=breaks,
                                detail=detail)
                for point, outcome in outcomes:
                    self._settle(point, outcome)
                if breaks == FAILURE_THRESHOLD:
                    return not self.remaining
            return True
        finally:
            if pool is not None:
                if futures:
                    _kill_pool(pool)
                else:
                    pool.shutdown(wait=True)

    def _scan_deadlines(self, running, timeout_s: float):
        """Flag stragglers at half their budget; the first point past its
        whole budget breaks the pool (returns the break)."""
        now = time.monotonic()
        for point in running:
            elapsed = now - point.started
            if not point.straggling and elapsed >= timeout_s / 2:
                point.straggling = True
                self._event("point-straggling", key=point.key,
                            attempt=point.attempt)
            if elapsed >= timeout_s:
                self._event("point-timeout", key=point.key,
                            attempt=point.attempt, timeout_s=timeout_s)
                return (TimeoutError(f"{point.key} exceeded {timeout_s}s"),
                        "point timeout")
        return None

    def _settle(self, point: SweepPoint, outcome) -> None:
        if isinstance(outcome, BaseException):
            self._retry(point, outcome)
        else:
            self._complete(point, outcome)

    def _retry(self, point: SweepPoint, error: BaseException) -> None:
        point.attempt += 1
        if point.attempt > self.policy.max_retries:
            raise SweepFailure(point.key, point.attempt, error)
        delay = backoff_delay(point.key, point.attempt)
        point.state = _WAITING
        point.not_before = time.monotonic() + delay
        self._event("point-retry", key=point.key, attempt=point.attempt,
                    backoff_s=round(delay, 6), error=repr(error))

    def _complete(self, point: SweepPoint, payload: PointTelemetry) -> None:
        self.results[point.index] = payload
        point.state = _DONE
        self.remaining -= 1
        if _metrics.ACTIVE:
            _metrics.inc(f"{self.prefix}.points_completed")
        if self.on_result is not None:
            self.on_result(point.spec, payload)

    def _run_inline(self) -> None:
        """Finish in this process, grid order; chaos ``kill``/``hang``
        degrade to ``poison`` so the parent survives its own chaos."""
        chaos = self.executor.chaos if self.executor is not None else None
        for point in self.points:
            while point.state != _DONE:
                time.sleep(max(0.0, point.not_before - time.monotonic()))
                action = (chaos.action(point.key, point.attempt)
                          if chaos is not None else None)
                try:
                    if action in ("kill", "hang", "poison"):
                        raise ChaosError(f"chaos ({action}) hit {point.key} "
                                         f"attempt {point.attempt} "
                                         f"in-process")
                    payload = execute_point(point.spec, *self.work)
                except Exception as error:
                    self._retry(point, error)
                    continue
                self._complete(point, payload)


def run_points(specs: Sequence[RunSpec],
               executor: Optional[PoolExecutor] = None,
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
    work = (str(cache_dir) if cache_dir is not None else None, use_cache,
            trace)
    points = _Supervisor(specs, executor, policy or SupervisorPolicy(),
                         work, on_result).run()
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
              executor: Optional[PoolExecutor] = None,
              policy: Optional[SupervisorPolicy] = None,
              trace: bool = False,
              cache_dir: Optional[Union[str, Path]] = None,
              journal: Optional[Union[SweepJournal, str, Path]] = None
              ) -> list[PointTelemetry]:
    """A warehouse sweep through :func:`run_points`, with a journal.

    ``executor=None`` runs the sweep in this process.  With a
    ``journal`` the sweep holds the journal's owner lock throughout: a
    second live owner raises
    :class:`~repro.experiments.resilience.JournalOwnershipError`, a
    dead owner's stale lock is broken, and a journal the caller
    already acquired keeps the caller's token and release.  Points
    already journaled are reused without running (their manifests come
    from the cache; they carry no trace, like any cache hit), the rest
    run and are journaled from this process as they complete — one
    append stream, each point exactly once, wherever it was computed.
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
    with journal.held():
        completed = journal.load()
        pending = [spec for spec in specs if spec.key() not in completed]
        fresh = run_points(
            pending, executor, **run,
            on_result=lambda spec, point: journal.record(spec.key(),
                                                         point.result))
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
# call ``run_many``.  Each is one call into the driver.


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

