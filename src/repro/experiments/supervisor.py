"""Fault-tolerant sharded sweep execution: supervision, retry, failover.

The pivot-point methodology only holds if every (W, C, P) grid point is
actually measured, so the harness — not just the simulation — must
survive infrastructure faults: a worker killed by the OOM killer, a
wedged process, a work directory that goes read-only mid-sweep.  The
plain executor (:mod:`repro.experiments.parallel`) degrades an entire
sweep to serial on the first :class:`BrokenProcessPool`; this module
layers a supervisor over the same :class:`~repro.experiments.parallel.RunSpec`
work units that keeps the sweep parallel through failure (DESIGN.md §11):

- **Worker supervision** — every point attempt carries a wall-clock
  deadline (``SupervisorPolicy.point_timeout_s``); a straggling attempt
  is flagged at half its budget and a timed-out attempt has its worker
  terminated and is retried.  Retries are bounded
  (``SupervisorPolicy.max_retries``) with exponential backoff whose
  jitter is *deterministic* — seeded from the spec key and attempt
  number — so reruns of a failing sweep fail identically.
- **Pool self-healing** — a :class:`BrokenProcessPool` no longer
  abandons parallelism: the victim shard's pool is rebuilt and only the
  incomplete points are resubmitted.
- **Shard-aware dispatch** — points are partitioned round-robin over a
  list of :class:`ShardSpec` (cache backend + work dir + worker count).
  Each shard's health is tracked; a shard that keeps failing
  (``shard_failure_threshold``) is marked failed and its pending points
  *fail over* to the healthy shards.  When every shard is failed the
  supervisor falls back to in-process execution, preserving the old
  never-fail contract.  The :class:`~repro.experiments.resilience.SweepJournal`
  stays the single merge point across shards.
- **Chaos harness** — :class:`ChaosPolicy` is a test-only, picklable
  fault injector consulted *inside* the worker: at seeded (key, attempt)
  points it kills the worker outright, hangs it, or poisons it with a
  :class:`ChaosError`.  ``tests/experiments/test_supervisor_chaos.py``
  and ``tools/chaos_smoke.py`` use it to prove that sweeps complete
  bit-identically under injected infrastructure failure.

Because every point is a pure function of its spec, none of this can
change results: retries recompute the same bytes, failover just moves
where they are computed, and the supervisor's counters/events
(``supervisor.*`` via :mod:`repro.obs.metrics`) are descriptive
telemetry, excluded from golden comparisons.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.experiments.parallel import (
    RunSpec,
    _run_spec,
    _run_spec_telemetry,
    effective_jobs,
    serial_forced,
)
from repro.experiments.records import ConfigResult
from repro.experiments.resilience import SweepJournal
from repro.obs import metrics as _metrics

#: Failures that indicate the shard's pool (not the point) is sick.
_POOL_BREAKS = (BrokenProcessPool, OSError, RuntimeError)


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
class ShardSpec:
    """One execution shard: a cache backend/work dir plus a worker pool.

    ``cache_dir=None`` means the default shared result cache; distinct
    directories model the ROADMAP's multiple-cache-backend sharding,
    with the sweep journal as the only merge point.
    """

    name: str
    cache_dir: Optional[str] = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("a shard needs at least one worker")


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision knobs: retry budget, backoff shape, timeouts, health.

    ``max_retries`` is the number of *re*-attempts a point may consume
    beyond its first try.  ``point_timeout_s=None`` disables deadlines.
    Backoff for attempt ``n`` (1-based) is
    ``min(base_backoff_s * backoff_factor**(n-1), max_backoff_s)`` plus
    a deterministic jitter in ``[0, base_backoff_s)`` seeded from the
    spec key (:func:`backoff_delay`).  A shard accumulating
    ``shard_failure_threshold`` failures is marked failed and its
    pending points fail over.
    """

    max_retries: int = 3
    point_timeout_s: Optional[float] = None
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    shard_failure_threshold: int = 3
    tick_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError("point_timeout_s must be positive (or None)")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.shard_failure_threshold < 1:
            raise ValueError("shard_failure_threshold must be >= 1")
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


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded, picklable infrastructure-fault injector (test-only).

    Consulted inside the worker before a point runs: for each
    (key, attempt) a deterministic draw picks one action —

    - ``kill``: the worker calls ``os._exit`` (breaks the pool, the
      supervisor's self-healing path);
    - ``hang``: the worker sleeps ``hang_s`` before running (the
      straggler/timeout path);
    - ``poison``: the worker raises :class:`ChaosError` (the plain
      retry path).

    Chaos only fires on the first ``attempts`` attempts of a point, so
    any retry budget ``>= attempts`` is guaranteed to converge.  When
    ``targets`` is non-empty only those cache keys are eligible.  On
    the supervisor's in-process (serial) path, ``kill`` and ``hang``
    degrade to ``poison`` so the parent survives.
    """

    seed: int = 0
    kill: float = 0.0
    hang: float = 0.0
    poison: float = 0.0
    attempts: int = 1
    hang_s: float = 2.0
    targets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("kill", "hang", "poison"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.kill + self.hang + self.poison > 1.0 + 1e-9:
            raise ValueError("kill + hang + poison must be <= 1")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")
        if self.hang_s < 0:
            raise ValueError("hang_s must be >= 0")
        object.__setattr__(self, "targets", tuple(self.targets))

    def action(self, key: str, attempt: int) -> Optional[str]:
        """The fault to inject for this (key, attempt), or ``None``."""
        if attempt >= self.attempts:
            return None
        if self.targets and key not in self.targets:
            return None
        draw = _unit_hash("chaos", self.seed, key, attempt)
        if draw < self.kill:
            return "kill"
        if draw < self.kill + self.hang:
            return "hang"
        if draw < self.kill + self.hang + self.poison:
            return "poison"
        return None


def _supervised_worker(spec: RunSpec, cache_dir: Optional[str],
                       use_cache: bool, attempt: int,
                       chaos: Optional[ChaosPolicy], worker_count: int,
                       telemetry: bool):
    """Pool worker: apply chaos (if armed), then run the point.

    Top-level so it pickles by reference.  Returns a
    :class:`~repro.experiments.records.ConfigResult` or, with
    ``telemetry``, a :class:`~repro.experiments.parallel.PointTelemetry`.
    """
    if chaos is not None:
        action = chaos.action(spec.key(), attempt)
        if action == "kill":
            os._exit(17)
        elif action == "hang":
            time.sleep(chaos.hang_s)
        elif action == "poison":
            raise ChaosError(
                f"chaos poisoned {spec.key()} attempt {attempt}")
    if telemetry:
        return _run_spec_telemetry(spec, cache_dir, use_cache,
                                   worker_count=worker_count)
    return _run_spec(spec, cache_dir, use_cache, worker_count=worker_count)


def _kill_pool(pool: ProcessPoolExecutor,
               join_timeout_s: float = 5.0) -> None:
    """Tear a pool down hard: terminate, join bounded, escalate to kill.

    Used for hung workers (a graceful shutdown would join them forever)
    and in the supervisor's cleanup path.  Terminated workers are
    *joined* with a bounded timeout and SIGKILLed if they ignore the
    terminate — without the join, every chaos-induced teardown leaks a
    zombie until the parent exits.  The executor's manager thread joins
    the workers too once it sees one die, and a thread that loses that
    ``waitpid`` race reads a reaped child as still alive (ECHILD) until
    the winner records its exit code; so the manager thread is joined
    before the final reap.  Touches the executor's process table and
    manager thread, which are stdlib-internal but stable across
    supported versions; every step is best-effort.
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


@dataclass
class ShardHealth:
    """Public health snapshot of one shard (see ``shard_health()``)."""

    name: str
    jobs: int
    failures: int = 0
    rebuilds: int = 0
    completed: int = 0
    failed: bool = False


class _ShardRuntime:
    """Mutable per-shard state: the live pool plus health counters."""

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.pool: Optional[ProcessPoolExecutor] = None
        self.failures = 0
        self.rebuilds = 0
        self.completed = 0
        self.failed = False

    def health(self) -> ShardHealth:
        """The picklable snapshot of this shard's counters."""
        return ShardHealth(name=self.spec.name, jobs=self.spec.jobs,
                           failures=self.failures, rebuilds=self.rebuilds,
                           completed=self.completed, failed=self.failed)

    def close(self, join_timeout_s: float = 5.0) -> None:
        """Release the shard's pool with the bounded teardown ladder."""
        if self.pool is not None:
            _kill_pool(self.pool, join_timeout_s=join_timeout_s)
            self.pool = None


_WAITING, _RUNNING, _DONE = "waiting", "running", "done"


class _Point:
    """Supervision state of one sweep point across its attempts."""

    __slots__ = ("index", "spec", "key", "attempt", "state", "shard",
                 "future", "deadline", "not_before", "last_error",
                 "straggling")

    def __init__(self, index: int, spec: RunSpec):
        self.index = index
        self.spec = spec
        self.key = spec.key()
        self.attempt = 0
        self.state = _WAITING
        self.shard: Optional[_ShardRuntime] = None
        self.future = None
        self.deadline: Optional[float] = None
        self.not_before = 0.0
        self.last_error: Optional[BaseException] = None
        self.straggling = False


def default_shards(count: int = 1, jobs: Optional[int] = None,
                   cache_dir: Optional[Union[str, Path]] = None
                   ) -> tuple[ShardSpec, ...]:
    """``count`` shards sharing one cache dir, splitting the job budget.

    The CLI's ``--shards N`` shape: the total worker budget
    (:func:`~repro.experiments.parallel.effective_jobs`) is divided
    evenly, each shard keeping at least one worker.
    """
    if count < 1:
        raise ValueError("need at least one shard")
    total = effective_jobs(jobs)
    per_shard = max(1, total // count)
    text = str(cache_dir) if cache_dir is not None else None
    return tuple(ShardSpec(name=f"shard-{i}", cache_dir=text,
                           jobs=per_shard) for i in range(count))


class ShardedSupervisor:
    """Fault-tolerant executor for :class:`RunSpec` points over shards.

    ``run(specs)`` returns payloads in grid order —
    :class:`~repro.experiments.records.ConfigResult` by default,
    :class:`~repro.experiments.parallel.PointTelemetry` with
    ``telemetry=True`` — surviving worker death, hangs, poisoned
    attempts, and whole-shard failure, or raising :class:`SweepFailure`
    once a point's retry budget is spent.  After (or during) a run,
    ``events`` holds the ordered degradation timeline and
    ``shard_health()`` the per-shard counters; both also flow through
    :mod:`repro.obs.metrics` (``supervisor.*`` counters, ``supervisor-*``
    stream events) when a registry is active.
    """

    def __init__(self, shards: Optional[Sequence[ShardSpec]] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 chaos: Optional[ChaosPolicy] = None,
                 use_cache: bool = True,
                 cache_dir: Optional[Union[str, Path]] = None):
        if shards is None:
            shards = default_shards(1, cache_dir=cache_dir)
        if not shards:
            raise ValueError("need at least one shard")
        self.policy = policy or SupervisorPolicy()
        self.chaos = chaos
        self.use_cache = use_cache
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._shards = [_ShardRuntime(spec) for spec in shards]
        #: Ordered degradation timeline: dicts with ``seq``/``event``
        #: plus event-specific fields (key, shard, attempt, detail).
        self.events: list[dict] = []
        self._inflight: dict = {}
        self._telemetry = False

    # ------------------------------------------------------------------
    # telemetry plumbing

    def shard_health(self) -> list[ShardHealth]:
        """Per-shard health snapshots, in shard declaration order."""
        return [shard.health() for shard in self._shards]

    def _event(self, kind: str, **fields) -> None:
        record = {"seq": len(self.events), "event": kind}
        record.update(fields)
        self.events.append(record)
        if _metrics.ACTIVE:
            _metrics.inc(f"supervisor.{kind.replace('-', '_')}")
            _metrics.emit(f"supervisor-{kind}", **fields)

    # ------------------------------------------------------------------
    # shard/pool lifecycle

    def _healthy(self) -> list[_ShardRuntime]:
        return [shard for shard in self._shards if not shard.failed]

    def _ensure_pool(self, shard: _ShardRuntime) -> ProcessPoolExecutor:
        if shard.pool is None:
            shard.pool = ProcessPoolExecutor(max_workers=shard.spec.jobs)
        return shard.pool

    def _drop_pool(self, shard: _ShardRuntime) -> None:
        shard.close()

    def _requeue_inflight(self, shard: _ShardRuntime, now: float,
                          error: BaseException) -> None:
        """Pull every in-flight point off a sick shard and retry it."""
        victims = [point for future, point in self._inflight.items()
                   if point.shard is shard]
        self._inflight = {future: point
                          for future, point in self._inflight.items()
                          if point.shard is not shard}
        for point in victims:
            self._retry(point, error, now)

    def _shard_failure(self, shard: _ShardRuntime, now: float,
                       error: BaseException, detail: str) -> None:
        """One pool break/timeout on ``shard``: heal it or fail it over."""
        shard.failures += 1
        self._drop_pool(shard)
        self._requeue_inflight(shard, now, error)
        if shard.failures >= self.policy.shard_failure_threshold:
            shard.failed = True
            self._event("shard-failed", shard=shard.spec.name,
                        failures=shard.failures, detail=detail)
            self._failover(shard)
        else:
            shard.rebuilds += 1
            self._event("pool-rebuild", shard=shard.spec.name,
                        failures=shard.failures, detail=detail)

    def _failover(self, failed: _ShardRuntime) -> None:
        """Reassign a failed shard's points round-robin to healthy ones."""
        healthy = self._healthy()
        if not healthy:
            return  # the run loop falls back to in-process execution
        moved = 0
        for point in self._points:
            if point.shard is failed and point.state != _DONE:
                target = healthy[moved % len(healthy)]
                point.shard = target
                moved += 1
                self._event("shard-failover", key=point.key,
                            source=failed.spec.name,
                            target=target.spec.name)

    # ------------------------------------------------------------------
    # point lifecycle

    def _retry(self, point: _Point, error: BaseException,
               now: float) -> None:
        point.attempt += 1
        point.last_error = error
        point.future = None
        point.straggling = False
        if point.attempt > self.policy.max_retries:
            raise SweepFailure(point.key, point.attempt, error)
        delay = backoff_delay(point.key, point.attempt, self.policy)
        point.state = _WAITING
        point.not_before = now + delay
        self._event("point-retry", key=point.key, attempt=point.attempt,
                    backoff_s=round(delay, 6), error=repr(error))

    def _submit(self, point: _Point, now: float) -> None:
        shard = point.shard
        assert shard is not None
        cache_dir = shard.spec.cache_dir or self.cache_dir
        try:
            pool = self._ensure_pool(shard)
            future = pool.submit(
                _supervised_worker, point.spec, cache_dir, self.use_cache,
                point.attempt, self.chaos, shard.spec.jobs, self._telemetry)
        except _POOL_BREAKS as error:
            # The pool cannot even accept work: count a shard failure
            # (which requeues nothing here — the point never launched)
            # and leave the point waiting for the next tick.
            self._shard_failure(shard, now, error, "submit failed")
            return
        point.state = _RUNNING
        point.future = future
        point.deadline = (now + self.policy.point_timeout_s
                          if self.policy.point_timeout_s is not None else None)
        self._inflight[future] = point

    def _complete(self, point: _Point, payload,
                  on_result: Optional[Callable]) -> None:
        self._results[point.index] = payload
        point.state = _DONE
        point.future = None
        if point.shard is not None:
            point.shard.completed += 1
        if _metrics.ACTIVE:
            _metrics.inc("supervisor.points_completed")
        if on_result is not None:
            result = payload.result if self._telemetry else payload
            on_result(point.spec, result)

    def _handle_done(self, future, now: float,
                     on_result: Optional[Callable]) -> None:
        point = self._inflight.pop(future, None)
        if point is None or point.state == _DONE:
            return  # stale future from a healed pool
        try:
            payload = future.result()
        except BrokenProcessPool as error:
            # Put the victim back first so the shard requeue sees it.
            self._inflight[future] = point
            self._shard_failure(point.shard, now, error, "worker died")
            return
        except SweepFailure:
            raise
        except Exception as error:
            self._retry(point, error, now)
            return
        self._complete(point, payload, on_result)

    def _scan_deadlines(self, now: float) -> None:
        for future, point in list(self._inflight.items()):
            if self._inflight.get(future) is not point:
                continue  # requeued by an earlier timeout this scan
            if point.deadline is None:
                continue
            midpoint = point.deadline - (self.policy.point_timeout_s or 0) / 2
            if not point.straggling and now >= midpoint:
                point.straggling = True
                self._event("point-straggling", key=point.key,
                            shard=point.shard.spec.name,
                            attempt=point.attempt)
            if now >= point.deadline:
                self._event("point-timeout", key=point.key,
                            shard=point.shard.spec.name,
                            attempt=point.attempt,
                            timeout_s=self.policy.point_timeout_s)
                # A hung worker cannot be interrupted individually; the
                # whole shard pool is torn down and rebuilt, and every
                # in-flight point on it (the victim included) retries.
                self._shard_failure(point.shard, now,
                                    TimeoutError(f"{point.key} exceeded "
                                                 f"{self.policy.point_timeout_s}s"),
                                    "point timeout")

    # ------------------------------------------------------------------
    # serial paths

    def _serial_attempt(self, point: _Point):
        if self.chaos is not None:
            action = self.chaos.action(point.key, point.attempt)
            if action is not None:
                # kill/hang degrade to poison in-process: the parent
                # must survive its own chaos.
                raise ChaosError(f"chaos ({action}) hit {point.key} "
                                 f"attempt {point.attempt} in-process")
        shard = point.shard
        cache_dir = ((shard.spec.cache_dir if shard is not None else None)
                     or self.cache_dir)
        if self._telemetry:
            return _run_spec_telemetry(point.spec, cache_dir, self.use_cache)
        return _run_spec(point.spec, cache_dir, self.use_cache)

    def _run_serial(self, points: list[_Point],
                    on_result: Optional[Callable]) -> None:
        for point in points:
            if point.state == _DONE:
                continue
            while True:
                try:
                    payload = self._serial_attempt(point)
                except SweepFailure:
                    raise
                except Exception as error:
                    self._retry(point, error, time.monotonic())
                    time.sleep(backoff_delay(point.key, point.attempt,
                                             self.policy))
                    continue
                self._complete(point, payload, on_result)
                break

    # ------------------------------------------------------------------
    # the supervisor loop

    def run(self, specs: Sequence[RunSpec],
            on_result: Optional[Callable] = None,
            telemetry: bool = False) -> list:
        """Run every spec to completion; payloads in spec order.

        ``on_result(spec, result)`` fires in this process as points
        complete (the journal hook).  Raises :class:`SweepFailure` when
        a point exhausts ``policy.max_retries``.
        """
        self._telemetry = telemetry
        self._results: list = [None] * len(specs)
        self._points = [_Point(index, spec)
                        for index, spec in enumerate(specs)]
        if not self._points:
            return []
        healthy = self._healthy()
        if not healthy:
            raise RuntimeError("every shard is already marked failed")
        for offset, point in enumerate(self._points):
            point.shard = healthy[offset % len(healthy)]
        if serial_forced():
            self._run_serial(self._points, on_result)
            return self._results
        try:
            self._loop(on_result)
        finally:
            for shard in self._shards:
                self._drop_pool(shard)
        return self._results

    def _loop(self, on_result: Optional[Callable]) -> None:
        self._inflight = {}
        while True:
            incomplete = [p for p in self._points if p.state != _DONE]
            if not incomplete:
                return
            if not self._healthy():
                # Last resort: every shard is failed.  Keep the old
                # executor's contract — finish in-process rather than
                # failing the sweep.
                self._event("serial-fallback",
                            remaining=len(incomplete))
                self._run_serial(incomplete, on_result)
                return
            now = time.monotonic()
            for point in incomplete:
                if point.state == _WAITING and point.not_before <= now:
                    self._submit(point, now)
            if not self._inflight:
                time.sleep(self.policy.tick_s)
                continue
            done, _ = wait(set(self._inflight), timeout=self.policy.tick_s,
                           return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in done:
                self._handle_done(future, now, on_result)
            self._scan_deadlines(time.monotonic())


# ----------------------------------------------------------------------
# run_many / sweep shaped entry points


def supervised_run_many(specs: Sequence[RunSpec],
                        shards: Optional[Sequence[ShardSpec]] = None,
                        policy: Optional[SupervisorPolicy] = None,
                        chaos: Optional[ChaosPolicy] = None,
                        jobs: Optional[int] = None,
                        use_cache: bool = True,
                        cache_dir: Optional[Union[str, Path]] = None,
                        on_result: Optional[Callable] = None,
                        supervisor: Optional[ShardedSupervisor] = None
                        ) -> list[ConfigResult]:
    """:func:`~repro.experiments.parallel.run_many` under supervision.

    Pass ``supervisor`` to keep the instance (its ``events`` and
    ``shard_health()`` feed the degradation timeline of sweep reports);
    otherwise one is built from ``shards``/``policy``/``chaos``.
    """
    if supervisor is None:
        if shards is None:
            shards = default_shards(1, jobs=jobs, cache_dir=cache_dir)
        supervisor = ShardedSupervisor(shards=shards, policy=policy,
                                       chaos=chaos, use_cache=use_cache,
                                       cache_dir=cache_dir)
    return supervisor.run(specs, on_result=on_result, telemetry=False)


def supervised_run_telemetry(specs: Sequence[RunSpec],
                             shards: Optional[Sequence[ShardSpec]] = None,
                             policy: Optional[SupervisorPolicy] = None,
                             chaos: Optional[ChaosPolicy] = None,
                             jobs: Optional[int] = None,
                             use_cache: bool = True,
                             cache_dir: Optional[Union[str, Path]] = None,
                             supervisor: Optional[ShardedSupervisor] = None
                             ) -> list:
    """:func:`~repro.experiments.parallel.run_telemetry` under supervision.

    Same contract as the unsupervised path: every point ships its
    manifest/trace/metrics and, when a metrics registry is active in
    the parent, per-point counters merge into it.
    """
    if supervisor is None:
        if shards is None:
            shards = default_shards(1, jobs=jobs, cache_dir=cache_dir)
        supervisor = ShardedSupervisor(shards=shards, policy=policy,
                                       chaos=chaos, use_cache=use_cache,
                                       cache_dir=cache_dir)
    points = supervisor.run(specs, telemetry=True)
    registry = _metrics.current_registry()
    if registry is not None:
        for point in points:
            if point is not None and point.metrics:
                registry.merge(point.metrics)
    return points


def supervised_sweep(warehouse_grid, processors: int,
                     machine=None, settings=None, clients_fn=None,
                     use_cache: bool = True, faults=None,
                     journal: Optional[Union[SweepJournal, str, Path]] = None,
                     jobs: Optional[int] = None,
                     cache_dir: Optional[Union[str, Path]] = None,
                     shards: Optional[Sequence[ShardSpec]] = None,
                     policy: Optional[SupervisorPolicy] = None,
                     chaos: Optional[ChaosPolicy] = None,
                     supervisor: Optional[ShardedSupervisor] = None,
                     workload=None) -> list[ConfigResult]:
    """A warehouse sweep under the supervisor, journal as merge point.

    Mirrors :func:`~repro.experiments.parallel.sweep_parallel`: points
    already journaled are reused without running, the rest are
    supervised across the shards, and every completion is journaled
    from this process — one append stream no matter how many shards
    computed the points.
    """
    from repro.experiments.configs import DEFAULT_SETTINGS
    from repro.hw.machine import XEON_MP_QUAD

    machine = machine if machine is not None else XEON_MP_QUAD
    settings = settings if settings is not None else DEFAULT_SETTINGS
    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)

    specs = []
    for warehouses in warehouse_grid:
        clients = (clients_fn(warehouses, processors)
                   if clients_fn is not None else None)
        specs.append(RunSpec(warehouses=warehouses, processors=processors,
                             clients=clients, machine=machine,
                             settings=settings, faults=faults,
                             workload=workload))

    completed = journal.load() if journal is not None else {}
    pending = [spec for spec in specs if spec.key() not in completed]

    def journal_point(spec: RunSpec, result: ConfigResult) -> None:
        if journal is not None:
            journal.record(spec.key(), result)

    fresh = supervised_run_many(pending, shards=shards, policy=policy,
                                chaos=chaos, jobs=jobs, use_cache=use_cache,
                                cache_dir=cache_dir, on_result=journal_point,
                                supervisor=supervisor)
    by_key = dict(completed)
    for spec, result in zip(pending, fresh):
        by_key[spec.key()] = result
    return [by_key[spec.key()] for spec in specs]


__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "ShardHealth",
    "ShardSpec",
    "ShardedSupervisor",
    "SupervisorPolicy",
    "SweepFailure",
    "backoff_delay",
    "default_shards",
    "supervised_run_many",
    "supervised_run_telemetry",
    "supervised_sweep",
]
