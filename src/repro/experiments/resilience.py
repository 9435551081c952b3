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
  only ever trusts fully journaled points.  One sweep at a time holds
  a journal, through a kernel ``flock`` on its ``<journal>.lock``
  sidecar (:meth:`SweepJournal.held`).
"""

from __future__ import annotations

import fcntl
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from repro.experiments.records import ConfigResult, envelope, open_envelope
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
    """Another live sweep holds the journal (:meth:`SweepJournal.held`)."""


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


#: Journals whose lock this process holds.  A forked child (a pool
#: worker) inherits their lock descriptors, and a ``flock`` lasts until
#: the last descriptor on it closes, so a child that outlived a killed
#: sweep would keep its journal locked: every child closes them at once.
_HOLDERS: set[SweepJournal] = set()


def _drop_inherited_locks() -> None:
    # Close, never LOCK_UN: unlocking would free the parent's lock too.
    for journal in _HOLDERS:
        os.close(journal._lock_fd)
        journal._lock_fd = None
    _HOLDERS.clear()


os.register_at_fork(after_in_child=_drop_inherited_locks)


class SweepJournal:
    """Append-only JSONL checkpoint of a sweep
    (:func:`repro.experiments.parallel.run_sweep`).

    One line per completed configuration::

        {"key": ..., "schema_version": N, "checksum": ..., "result": {...}}

    ``record`` appends, flushes, and fsyncs, so a completed point
    survives a kill at any instant; ``load`` skips any line that is
    truncated, corrupt, checksum-inconsistent, or from another schema
    generation, which makes resumption safe after arbitrary crashes.

    **One holder:** :meth:`held` takes an exclusive ``flock`` on the
    ``<journal>.lock`` sidecar, and
    :func:`~repro.experiments.parallel.run_sweep` holds it for the whole
    sweep, so a second live sweep on the journal is refused.  The
    kernel drops the lock when its holder dies, so a killed sweep
    leaves nothing to break.  A bare ``record`` on a journal nobody
    holds still appends.

    **Torn-line recovery:** a kill mid-append leaves a partial final
    line; if the journal were then appended to again, the next record
    would fuse onto the torn tail and *both* would be lost.  ``load``
    under :meth:`held` therefore repairs the file: every undecodable
    line is moved into the ``<journal>.quarantine`` sidecar (bytes
    preserved for inspection) and the journal is atomically compacted
    to only its valid lines, so subsequent ``record`` appends land on a
    clean tail.  Quarantine events are counted (``journal.quarantined``)
    and streamed through :mod:`repro.obs.metrics` when a registry is
    active.  A ``load`` without the lock (a count, a ``repro diff``)
    only skips bad lines: the file may be a live sweep's.

    Duplicate suppression is always on: re-recording a key with a
    bit-identical result is a no-op, so retried points never write
    twice.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        #: Lines skipped by the last ``load`` (corrupt/truncated/stale).
        self.skipped = 0
        #: Lines moved to the quarantine sidecar over this journal's
        #: lifetime.
        self.quarantined = 0
        # The locked sidecar's descriptor while :meth:`held`.
        self._lock_fd: Optional[int] = None
        # key -> payload checksum of every record this instance has
        # appended or loaded; the duplicate-append suppression set.
        self._recorded: dict[str, str] = {}

    @property
    def quarantine_path(self) -> Path:
        """The sidecar file bad journal lines are moved into."""
        return self.path.with_name(self.path.name + ".quarantine")

    @property
    def lock_path(self) -> Path:
        """The lock sidecar :meth:`held` locks; never deleted, since a
        new file would let two sweeps each lock their own."""
        return self.path.with_name(self.path.name + ".lock")

    @contextmanager
    def held(self) -> Iterator["SweepJournal"]:
        """Hold the journal's lock for a block (what sweeps use).

        Raises :class:`JournalOwnershipError` when another sweep, or
        another instance in this process, holds it.  Re-entrant on the
        holding instance.
        """
        if self._lock_fd is not None:
            yield self
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise JournalOwnershipError(
                f"journal {self.path} is owned by another running "
                f"sweep") from None
        except OSError:
            os.close(fd)
            raise
        self._lock_fd = fd
        _HOLDERS.add(self)
        try:
            yield self
        finally:
            # A forked child that leaves the block closed its copy at
            # the fork; its fd number may name another file by now.
            if self._lock_fd is not None:
                _HOLDERS.discard(self)
                os.close(self._lock_fd)
                self._lock_fd = None

    def load(self) -> dict[str, ConfigResult]:
        """Completed points by cache key, skipping untrusted lines.

        Any line that cannot be trusted (truncated JSON, checksum
        mismatch, stale schema) is skipped.  Under :meth:`held` it is
        also quarantined into :attr:`quarantine_path` and the journal
        rewritten with only the valid lines, so the file is safe to
        append to after the ``load``.
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
                    completed[entry["key"]] = open_envelope(entry)
                    self._recorded[entry["key"]] = entry["checksum"]
                except (ValueError, KeyError, TypeError):
                    self.skipped += 1
                    bad_lines.append((lineno, line))
                    continue
                valid_lines.append(line)
        if bad_lines and self._lock_fd is not None:
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
        suppressed rather than appended twice.
        """
        entry = {"key": key, **envelope(result)}
        checksum = entry["checksum"]
        if self._recorded.get(key) == checksum:
            if _metrics.ACTIVE:
                _metrics.inc("journal.duplicate_skips")
            return
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
