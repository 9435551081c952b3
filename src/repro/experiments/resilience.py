"""Harness resilience: the convergence guard and sweep checkpoints.

Every figure in this reproduction flows through the coupled runner, so
the harness must stay trustworthy over long, repeated execution (the
Darmont benchmark-quality argument): a fixed point that oscillates must
not silently ship garbage, and a killed sweep must resume from its last
completed point instead of restarting.  (A wedged configuration is the
sweep driver's to cancel: ``SupervisorPolicy.point_timeout_s``.)

- :class:`ConvergenceGuard` — watches the (user CPI, OS CPI) trajectory
  of the fixed-point iteration; rejects non-finite values outright and
  applies damped updates when successive deltas *grow* (oscillation or
  divergence), raising a structured :class:`ConvergenceError` when
  damping cannot rescue the iteration.  On a convergent trajectory —
  every healthy configuration — it is a pure observer and the iterates
  pass through bit-unchanged.
- :class:`SweepJournal` — an append-only JSON-lines checkpoint of
  completed sweep points.  Each record carries the serialization schema
  version and a payload checksum; a partially written final line (the
  kill case) or a corrupt/stale record is skipped on load, so resuming
  only ever trusts fully journaled points.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from repro.experiments.records import (
    SCHEMA_VERSION,
    ConfigResult,
    SchemaMismatchError,
    payload_checksum,
)
from repro.obs import metrics as _metrics


class ConvergenceError(RuntimeError):
    """The coupled fixed point failed to converge.

    Carries the full iterate history and a context string naming the
    configuration, so a failed sweep point is diagnosable from the
    exception alone.
    """

    def __init__(self, reason: str, *, context: str = "",
                 history: Optional[list[tuple[float, float]]] = None):
        self.reason = reason
        self.context = context
        self.history = list(history or [])
        detail = f" [{context}]" if context else ""
        super().__init__(
            f"fixed-point iteration failed{detail}: {reason}; "
            f"history={self.history!r}")


class JournalOwnershipError(RuntimeError):
    """The journal is (or was) claimed by another live coordinator.

    Raised by :meth:`SweepJournal.acquire` when a different coordinator
    holds the lock and its process is still alive, and by
    :meth:`SweepJournal.record` when an acquired lock has been broken
    out from under us — the split-brain case where continuing to append
    would interleave two coordinators' output.
    """


#: Relaxation of a damped update toward the last accepted iterate.
DAMPING = 0.5
#: A delta larger than this multiple of the previous one is "growing".
GROWTH_TOLERANCE = 1.0
#: Damped rounds allowed before the iteration is declared divergent.
MAX_DAMPED_ROUNDS = 3
#: Deltas at or below this never count as growing (converged noise).
MIN_DELTA = 1e-6


class ConvergenceGuard:
    """Divergence detection with a damping fallback for the CPI fixed point.

    ``admit(user_cpi, os_cpi)`` is called once per coupled round with
    the freshly solved iterate and returns the iterate to use for the
    next round.  Behavior:

    - non-finite or non-positive CPI values raise :class:`ConvergenceError`
      immediately (a NaN would otherwise poison every downstream number);
    - while successive deltas shrink (the normal, mildly-coupled case)
      the iterate passes through unchanged — healthy runs are
      bit-identical with or without the guard;
    - when a delta *grows* past ``GROWTH_TOLERANCE`` times the previous
      delta, the update is damped toward the last accepted iterate
      (``DAMPING``); after ``MAX_DAMPED_ROUNDS`` damped updates with
      deltas still growing, the iteration is declared divergent.

    ``context`` names the configuration in a :class:`ConvergenceError`.
    """

    def __init__(self, context: str = ""):
        self.context = context
        self.history: list[tuple[float, float]] = []
        self.damped_rounds = 0
        self._accepted: Optional[tuple[float, float]] = None
        self._last_delta: Optional[float] = None

    def _delta(self, user_cpi: float, os_cpi: float) -> float:
        prev_user, prev_os = self._accepted  # type: ignore[misc]
        return max(abs(user_cpi - prev_user) / prev_user,
                   abs(os_cpi - prev_os) / prev_os)

    def admit(self, user_cpi: float, os_cpi: float) -> tuple[float, float]:
        """Vet one iterate; returns the (possibly damped) iterate to use."""
        if not (math.isfinite(user_cpi) and math.isfinite(os_cpi)):
            raise ConvergenceError(
                f"non-finite CPI iterate ({user_cpi}, {os_cpi})",
                context=self.context, history=self.history)
        if user_cpi <= 0 or os_cpi <= 0:
            raise ConvergenceError(
                f"non-positive CPI iterate ({user_cpi}, {os_cpi})",
                context=self.context, history=self.history)
        self.history.append((user_cpi, os_cpi))
        if self._accepted is None:
            self._accepted = (user_cpi, os_cpi)
            return user_cpi, os_cpi
        delta = self._delta(user_cpi, os_cpi)
        growing = (self._last_delta is not None
                   and delta > MIN_DELTA
                   and delta > GROWTH_TOLERANCE * self._last_delta)
        if growing:
            self.damped_rounds += 1
            if self.damped_rounds > MAX_DAMPED_ROUNDS:
                raise ConvergenceError(
                    f"deltas still growing after {MAX_DAMPED_ROUNDS} "
                    f"damped rounds (last delta {delta:.3g})",
                    context=self.context, history=self.history)
            prev_user, prev_os = self._accepted
            user_cpi = prev_user + DAMPING * (user_cpi - prev_user)
            os_cpi = prev_os + DAMPING * (os_cpi - prev_os)
            delta = self._delta(user_cpi, os_cpi)
        self._last_delta = delta
        self._accepted = (user_cpi, os_cpi)
        return user_cpi, os_cpi


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a lock holder's process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - exotic kernels
        return False
    return True


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-created/renamed entry is durable.

    File-data fsync alone does not persist the *name*: after a crash, a
    freshly created journal (or a just-compacted one published via
    ``os.replace``) can vanish from its directory even though its bytes
    were synced.  Best-effort — some filesystems refuse ``open`` on
    directories, and durability degrades gracefully there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic/readonly filesystem
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dirs
        pass
    finally:
        os.close(fd)


class SweepJournal:
    """Append-only JSONL checkpoint of a sweep
    (:func:`repro.experiments.parallel.run_sweep`).

    One line per completed configuration::

        {"key": ..., "schema_version": N, "checksum": ..., "result": {...}}

    ``record`` appends, flushes, and fsyncs, so a completed point
    survives a kill at any instant; ``load`` skips any line that is
    truncated, corrupt, checksum-inconsistent, or from another schema
    generation, which makes resumption safe after arbitrary crashes.

    **Torn-line recovery:** a kill mid-append leaves a partial final
    line; if the journal were then appended to again, the next record
    would fuse onto the torn tail and *both* would be lost.  ``load``
    therefore repairs the file on reopen: every undecodable line is
    moved into the ``<journal>.quarantine`` sidecar (bytes preserved
    for inspection) and the journal is atomically compacted to only its
    valid lines, so subsequent ``record`` appends land on a clean tail.
    Quarantine events are counted (``journal.quarantined``) and
    streamed through :mod:`repro.obs.metrics` when a registry is
    active.

    **Split-brain protection:** two coordinators appending to the same
    journal would interleave records (and, on a torn tail, fuse them).
    :meth:`acquire` claims exclusive append rights through an
    ``O_EXCL``-created ``<journal>.lock`` sidecar naming the owner and
    its pid; a second coordinator's ``acquire`` raises
    :class:`JournalOwnershipError` while the first is alive, and breaks
    the lock automatically once the holder's process is gone (crash
    recovery needs no manual cleanup).  An acquired journal re-checks
    the lock on every ``record`` and refuses to append if ownership was
    stolen.  :func:`~repro.experiments.parallel.run_sweep` holds the
    lock for the whole sweep (:meth:`held`), reusing the caller's token
    when the caller acquired it first; a bare ``record`` on a journal
    nobody acquired still appends.  Duplicate suppression is always on: re-recording a
    key with a bit-identical result is a no-op, so retried points never
    write twice.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        #: Lines skipped by the last ``load`` (corrupt/truncated/stale).
        self.skipped = 0
        #: Lines moved to the quarantine sidecar over this journal's
        #: lifetime.
        self.quarantined = 0
        #: Owner token while this instance holds the lock (see
        #: :meth:`acquire`); ``None`` when unlocked.
        self.owner: Optional[str] = None
        # key -> payload checksum of every record this instance has
        # appended or loaded; the duplicate-append suppression set.
        self._recorded: dict[str, str] = {}

    @property
    def quarantine_path(self) -> Path:
        """The sidecar file bad journal lines are moved into."""
        return self.path.with_name(self.path.name + ".quarantine")

    @property
    def lock_path(self) -> Path:
        """The ownership lock sidecar (see :meth:`acquire`)."""
        return self.path.with_name(self.path.name + ".lock")

    def _read_lock(self) -> Optional[dict]:
        """The current lock holder's ``{"owner", "pid"}``, or ``None``."""
        try:
            entry = json.loads(self.lock_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or "owner" not in entry:
            return None
        return entry

    def acquire(self, owner: Optional[str] = None,
                attempts: int = 5) -> str:
        """Claim exclusive append rights; returns the owner token.

        ``owner`` defaults to a pid-derived token.  Re-acquiring with
        the token already on the lock is a no-op (idempotent).  A lock
        held by a *dead* process is broken and taken over; a lock held
        by a live one raises :class:`JournalOwnershipError`.
        """
        if owner is None:
            owner = f"pid-{os.getpid()}"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"owner": owner, "pid": os.getpid()})
        for _attempt in range(attempts):
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._read_lock()
                if holder is not None and holder.get("owner") == owner:
                    self.owner = owner
                    return owner
                pid = holder.get("pid") if holder is not None else None
                if holder is not None and isinstance(pid, int) \
                        and _pid_alive(pid):
                    raise JournalOwnershipError(
                        f"journal {self.path} is owned by "
                        f"{holder['owner']!r} (pid {pid}, alive)")
                # Holder is dead (or the lock is unreadable garbage):
                # break the stale lock and race for it again.
                if _metrics.ACTIVE:
                    _metrics.inc("journal.stale_locks_broken")
                try:
                    self.lock_path.unlink()
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            _fsync_dir(self.path.parent)
            self.owner = owner
            return owner
        raise JournalOwnershipError(
            f"could not acquire journal lock {self.lock_path} "
            f"after {attempts} attempt(s)")

    def release(self) -> None:
        """Drop the ownership lock (no-op when not held by us)."""
        if self.owner is None:
            return
        holder = self._read_lock()
        if holder is not None and holder.get("owner") == self.owner:
            try:
                self.lock_path.unlink()
            except OSError:  # pragma: no cover - read-only journal dir
                pass
        self.owner = None

    @contextmanager
    def held(self) -> Iterator["SweepJournal"]:
        """Hold the owner lock for a block (what the sweep drivers use).

        A journal the caller already acquired keeps the caller's token
        (re-acquired, so a stolen lock still raises) and the caller's
        release; otherwise a pid-derived token is taken on entry and
        released on exit.
        """
        caller_held = self.owner is not None
        self.acquire(self.owner)
        try:
            yield self
        finally:
            if not caller_held:
                self.release()

    def _check_ownership(self) -> None:
        """Refuse to append when an acquired lock was stolen/broken."""
        if self.owner is None:
            return
        holder = self._read_lock()
        if holder is None or holder.get("owner") != self.owner:
            taken = holder.get("owner") if holder is not None else None
            raise JournalOwnershipError(
                f"lost ownership of journal {self.path}: lock now held "
                f"by {taken!r}")

    def load(self) -> dict[str, ConfigResult]:
        """Completed points by cache key; repairs a torn/corrupt tail.

        Any line that cannot be trusted (truncated JSON, checksum
        mismatch, stale schema) is quarantined into
        :attr:`quarantine_path` and the journal is rewritten with only
        the valid lines, so the file is always safe to append to after
        a ``load``.
        """
        self.skipped = 0
        self._recorded = {}
        completed: dict[str, ConfigResult] = {}
        if not self.path.exists():
            return completed
        valid_lines: list[str] = []
        bad_lines: list[tuple[int, str]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if (not isinstance(entry, dict)
                            or entry.get("schema_version") != SCHEMA_VERSION):
                        raise SchemaMismatchError("stale journal entry")
                    if payload_checksum(entry["result"]) != entry["checksum"]:
                        raise ValueError("journal checksum mismatch")
                    completed[entry["key"]] = ConfigResult.from_dict(
                        entry["result"])
                    self._recorded[entry["key"]] = entry["checksum"]
                except (json.JSONDecodeError, SchemaMismatchError, ValueError,
                        KeyError, TypeError):
                    self.skipped += 1
                    bad_lines.append((lineno, line))
                    continue
                valid_lines.append(line)
        if bad_lines:
            self._quarantine_lines(bad_lines, valid_lines)
        return completed

    def _quarantine_lines(self, bad_lines: list[tuple[int, str]],
                          valid_lines: list[str]) -> None:
        """Move bad lines to the sidecar and compact the journal.

        Best-effort on a read-only filesystem (the in-memory load
        already excluded the bad lines), but when it succeeds the
        journal ends on a clean newline so appends cannot fuse records.
        """
        self.quarantined += len(bad_lines)
        try:
            with open(self.quarantine_path, "a",
                      encoding="utf-8") as handle:
                for _lineno, line in bad_lines:
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for line in valid_lines:
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            # fsync-before-rename, then fsync the directory: the
            # compacted journal must be durably *named* before any
            # subsequent append trusts it as the clean tail.
            os.replace(tmp, self.path)
            _fsync_dir(self.path.parent)
        except OSError:  # pragma: no cover - read-only journal dir
            pass
        if _metrics.ACTIVE:
            _metrics.inc("journal.quarantined", len(bad_lines))
            for lineno, _line in bad_lines:
                _metrics.emit("journal-quarantine", path=str(self.path),
                              line=lineno)

    def record(self, key: str, result: ConfigResult) -> None:
        """Durably append one completed point.

        Idempotent per (key, payload): re-recording a key with a
        bit-identical result (a retried point, a resumed sweep) is
        suppressed rather than appended twice.  Raises
        :class:`JournalOwnershipError` when this instance had acquired
        the journal but no longer holds its lock.
        """
        self._check_ownership()
        payload = result.to_dict()
        checksum = payload_checksum(payload)
        if self._recorded.get(key) == checksum:
            if _metrics.ACTIVE:
                _metrics.inc("journal.duplicate_skips")
            return
        entry = {
            "key": key,
            "schema_version": SCHEMA_VERSION,
            "checksum": checksum,
            "result": payload,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._recorded[key] = checksum
        if created:
            # First append created the file: sync the directory entry
            # too, or a crash can lose the whole journal despite the
            # data fsync above.
            _fsync_dir(self.path.parent)
