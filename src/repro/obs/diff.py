"""Differential observability: structured comparison of two snapshots.

Side-by-side profiling is how the paper's lineage argues — Sirin &
Ailamaki diff OLAP against OLTP counters, Jia et al. diff data-center
workloads against SPEC — and it is how this repro answers "did this
change regress the pivot-point story".  :func:`diff_snapshots` takes a
*baseline* and a *candidate* :class:`~repro.obs.snapshot.SweepSnapshot`
and produces a :class:`SnapshotDiff`:

- **grid alignment** — points outer-joined on grid coordinates
  (:func:`~repro.obs.snapshot.point_key`), with added/removed points
  called out explicitly rather than silently dropped;
- **per-metric deltas** — absolute and relative, for every
  :data:`~repro.obs.snapshot.POINT_METRICS` entry of every common
  point, each classified by a :class:`ThresholdPolicy` into
  ``improved`` / ``regressed`` / ``changed`` / ``unchanged``;
- **flame-table diffs** — canonical call-count deltas plus
  informational self-time deltas from the snapshot annexes;
- **metrics-counter deltas** — merged registry totals compared side by
  side (informational: counters explain behavior, they are not
  verdicts);
- **provenance diff** — identity fields compared with *explanations*
  attached (a changed workload fingerprint explains metric movement; a
  changed git revision explains everything), so the numbers never
  appear without their likely cause.

Only per-point metric verdicts feed CI: ``repro diff --fail-on-regress``
exits with :data:`REGRESSION_EXIT_CODE` iff any cell regressed beyond
its threshold.  Thresholds default to exact comparison (results are
deterministic) and can be widened per metric via a YAML/JSON policy
file (DESIGN.md §13).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.obs.snapshot import POINT_METRICS, SweepSnapshot

if TYPE_CHECKING:
    from repro.experiments.report import ReportSection, RunReport

#: Exit code of ``repro diff --fail-on-regress`` when any metric cell
#: regressed — distinct from 1 (usage/load errors) so CI can tell "the
#: diff found regressions" from "the diff could not run".
REGRESSION_EXIT_CODE = 3

#: Cell verdicts, in severity order (worst first).
VERDICT_REGRESSED = "regressed"
VERDICT_IMPROVED = "improved"
VERDICT_CHANGED = "changed"
VERDICT_UNCHANGED = "unchanged"
VERDICT_NEW = "new"
VERDICT_MISSING = "missing"

#: Metric directions: which way is better.  ``neutral`` metrics can
#: change (reported as such) but never regress or improve.
_DIRECTIONS = ("higher", "lower", "neutral")


class ThresholdPolicyError(ValueError):
    """A threshold policy file is malformed (bad key, type, or value)."""


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric's deltas are classified.

    ``direction`` names the good direction (``higher`` for throughput,
    ``lower`` for CPI, ``neutral`` for descriptive values); a delta
    whose magnitude exceeds *both* tolerances is significant, and its
    sign against the direction decides improved vs. regressed.
    """

    direction: str = "neutral"
    #: Relative tolerance (fraction of the baseline magnitude).
    rel_tol: float = 1e-9
    #: Absolute tolerance, in the metric's own unit.
    abs_tol: float = 0.0

    def __post_init__(self):
        """Validate direction and tolerance signs."""
        if self.direction not in _DIRECTIONS:
            raise ThresholdPolicyError(
                f"direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ThresholdPolicyError("tolerances must be >= 0")


#: Default per-metric policies: direction reflects what the paper's
#: iron law treats as good (TPS up, CPI/MPI down); tolerances are exact
#: because results are deterministic — a policy file widens them when
#: comparing across code revisions that legitimately move numbers.
DEFAULT_METRIC_POLICIES: dict[str, MetricPolicy] = {
    "tps": MetricPolicy(direction="higher"),
    "tps_ironlaw": MetricPolicy(direction="higher"),
    "cpi": MetricPolicy(direction="lower"),
    "user_cpi": MetricPolicy(direction="lower"),
    "os_cpi": MetricPolicy(direction="lower"),
    "l3_mpi_k": MetricPolicy(direction="lower"),
    "util": MetricPolicy(direction="higher"),
    "reads_per_txn": MetricPolicy(direction="lower"),
    "cs_per_txn": MetricPolicy(direction="lower"),
    "fixed_point_rounds": MetricPolicy(direction="neutral"),
}


def _yaml_or_json(text: str, source: str) -> dict:
    """Parse a policy document: YAML when available, JSON fallback."""
    try:
        import yaml
    except ImportError:
        yaml = None
    if yaml is not None:
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ThresholdPolicyError(f"{source}: bad YAML: {error}")
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ThresholdPolicyError(
                f"{source}: bad JSON (and PyYAML is unavailable): {error}")
    if not isinstance(data, dict):
        raise ThresholdPolicyError(
            f"{source}: policy document must be a mapping")
    return data


def _metric_policy(data: dict, source: str,
                   base: MetricPolicy) -> MetricPolicy:
    """One policy entry merged over ``base``; unknown keys fail."""
    if not isinstance(data, dict):
        raise ThresholdPolicyError(
            f"{source}: policy entry must be a mapping")
    known = {"direction", "rel_tol", "abs_tol"}
    unknown = set(data) - known
    if unknown:
        raise ThresholdPolicyError(
            f"{source}: unknown policy key(s) {sorted(unknown)} "
            f"(known: {sorted(known)})")
    try:
        return MetricPolicy(
            direction=data.get("direction", base.direction),
            rel_tol=float(data.get("rel_tol", base.rel_tol)),
            abs_tol=float(data.get("abs_tol", base.abs_tol)),
        )
    except (TypeError, ValueError) as error:
        raise ThresholdPolicyError(f"{source}: {error}")


@dataclass(frozen=True)
class ThresholdPolicy:
    """The full classification policy: defaults plus per-metric rows."""

    default: MetricPolicy = field(default_factory=MetricPolicy)
    metrics: dict = field(default_factory=dict)

    @classmethod
    def standard(cls) -> "ThresholdPolicy":
        """The built-in policy (exact tolerances, paper directions)."""
        return cls(metrics=dict(DEFAULT_METRIC_POLICIES))

    @classmethod
    def load(cls, path: Path | str) -> "ThresholdPolicy":
        """Read per-metric overrides from a YAML/JSON policy file.

        Layout::

            default: {rel_tol: 0.01}
            metrics:
              tps: {direction: higher, rel_tol: 0.05}
              cpi: {abs_tol: 0.02}

        Overrides merge over the built-in defaults: an absent metric
        keeps its standard direction and tolerances; an absent field in
        an override keeps the standard value for that metric.
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ThresholdPolicyError(f"cannot read policy file: {error}")
        data = _yaml_or_json(text, str(path))
        unknown = set(data) - {"default", "metrics"}
        if unknown:
            raise ThresholdPolicyError(
                f"{path}: unknown top-level key(s) {sorted(unknown)} "
                f"(known: ['default', 'metrics'])")
        default = _metric_policy(data.get("default", {}),
                                 f"{path}: default", MetricPolicy())
        metrics = dict(DEFAULT_METRIC_POLICIES)
        entries = data.get("metrics", {})
        if not isinstance(entries, dict):
            raise ThresholdPolicyError(f"{path}: metrics must be a mapping")
        for name, entry in entries.items():
            base = metrics.get(name, default)
            metrics[name] = _metric_policy(entry, f"{path}: metrics.{name}",
                                           base)
        return cls(default=default, metrics=metrics)

    def for_metric(self, name: str) -> MetricPolicy:
        """The policy governing ``name`` (falls back to the default)."""
        return self.metrics.get(name, self.default)

    def classify(self, name: str, baseline: Optional[float],
                 candidate: Optional[float]) -> str:
        """Verdict for one metric cell."""
        if baseline is None and candidate is None:
            return VERDICT_UNCHANGED
        if baseline is None:
            return VERDICT_NEW
        if candidate is None:
            return VERDICT_MISSING
        policy = self.for_metric(name)
        delta = candidate - baseline
        tolerance = max(policy.abs_tol, policy.rel_tol * abs(baseline))
        if abs(delta) <= tolerance:
            return VERDICT_UNCHANGED
        if policy.direction == "neutral":
            return VERDICT_CHANGED
        good = delta > 0 if policy.direction == "higher" else delta < 0
        return VERDICT_IMPROVED if good else VERDICT_REGRESSED


@dataclass(frozen=True)
class MetricDelta:
    """One (point, metric) comparison cell."""

    point: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    verdict: str

    @property
    def abs_delta(self) -> Optional[float]:
        """candidate − baseline, when both sides exist."""
        if self.baseline is None or self.candidate is None:
            return None
        return self.candidate - self.baseline

    @property
    def rel_delta(self) -> Optional[float]:
        """abs_delta / |baseline|, when defined."""
        delta = self.abs_delta
        if delta is None or self.baseline == 0:
            return None
        return delta / abs(self.baseline)


@dataclass(frozen=True)
class ProvenanceDelta:
    """One provenance field side by side, with its explanation."""

    name: str
    baseline: object
    candidate: object
    #: Why this difference matters for interpreting the metric deltas
    #: (empty for matching fields).
    explanation: str = ""

    @property
    def changed(self) -> bool:
        """True when the two sides disagree."""
        return self.baseline != self.candidate


#: Explanations attached to a changed provenance field: the diff's
#: "why" column, mirroring how the paper never shows a counter delta
#: without naming what differed between the setups.
_PROVENANCE_EXPLANATIONS = {
    "workload": "the candidate ran a different workload scenario",
    "workload_fingerprint": "the workload spec content changed — metric "
                            "deltas reflect the workload, not the code",
    "settings_fingerprint": "fidelity settings differ — points are not "
                            "directly comparable",
    "fault_fingerprint": "one side ran under fault injection",
    "package_version": "package version changed between the runs",
    "git_rev": "code revision changed — any delta may be a code effect",
    "seed": "RNG seed differs — results are from different seed trees",
    "fleet": "fleet shape differs (descriptive only; results are "
             "execution-independent)",
}


@dataclass
class SnapshotDiff:
    """The structured comparison of two sweep snapshots."""

    baseline: SweepSnapshot
    candidate: SweepSnapshot
    policy: ThresholdPolicy
    #: Per-(point, metric) cells for points present on both sides.
    deltas: list[MetricDelta] = field(default_factory=list)
    #: Grid keys only the candidate has.
    added_points: list[str] = field(default_factory=list)
    #: Grid keys only the baseline has.
    removed_points: list[str] = field(default_factory=list)
    #: Flame rows: (track, baseline calls, candidate calls,
    #: baseline self_s, candidate self_s) with None for absent sides.
    flame: list[tuple] = field(default_factory=list)
    #: Counter rows: (name, baseline, candidate) with None for absent.
    counters: list[tuple] = field(default_factory=list)
    provenance: list[ProvenanceDelta] = field(default_factory=list)

    def verdict_counts(self) -> dict[str, int]:
        """How many metric cells landed on each verdict."""
        counts = {verdict: 0 for verdict in (
            VERDICT_REGRESSED, VERDICT_IMPROVED, VERDICT_CHANGED,
            VERDICT_UNCHANGED, VERDICT_NEW, VERDICT_MISSING)}
        for delta in self.deltas:
            counts[delta.verdict] += 1
        return counts

    @property
    def regressions(self) -> list[MetricDelta]:
        """The cells classified as regressed (CI's gating set)."""
        return [d for d in self.deltas if d.verdict == VERDICT_REGRESSED]

    @property
    def has_regressions(self) -> bool:
        """True when any cell regressed beyond its threshold."""
        return any(d.verdict == VERDICT_REGRESSED for d in self.deltas)

    @property
    def identical(self) -> bool:
        """True when the canonical payloads match exactly."""
        return self.baseline.checksum() == self.candidate.checksum()

    def exit_code(self, fail_on_regress: bool) -> int:
        """The CLI exit code this diff maps to."""
        if fail_on_regress and self.has_regressions:
            return REGRESSION_EXIT_CODE
        return 0


def _explanations_for(changed_fields: list[str]) -> dict[str, str]:
    """Explanation text per changed provenance field."""
    return {name: _PROVENANCE_EXPLANATIONS.get(
        name, "provenance field differs")
        for name in changed_fields}


def diff_snapshots(baseline: SweepSnapshot, candidate: SweepSnapshot,
                   policy: Optional[ThresholdPolicy] = None) -> SnapshotDiff:
    """Compare two snapshots into a :class:`SnapshotDiff`.

    Deterministic: all joins iterate in sorted key order, so rendering
    the same pair twice is byte-identical.
    """
    if policy is None:
        policy = ThresholdPolicy.standard()
    diff = SnapshotDiff(baseline=baseline, candidate=candidate,
                        policy=policy)

    base_points = baseline.points
    cand_points = candidate.points
    common = sorted(set(base_points) & set(cand_points))
    diff.added_points = sorted(set(cand_points) - set(base_points))
    diff.removed_points = sorted(set(base_points) - set(cand_points))
    for key in common:
        base_metrics = base_points[key].get("metrics", {})
        cand_metrics = cand_points[key].get("metrics", {})
        names = list(POINT_METRICS) + sorted(
            (set(base_metrics) | set(cand_metrics)) - set(POINT_METRICS))
        for name in names:
            base_value = base_metrics.get(name)
            cand_value = cand_metrics.get(name)
            if base_value is None and cand_value is None:
                continue
            diff.deltas.append(MetricDelta(
                point=key, metric=name, baseline=base_value,
                candidate=cand_value,
                verdict=policy.classify(name, base_value, cand_value)))

    def flame_index(snapshot: SweepSnapshot) -> dict[str, dict]:
        rows = {}
        for row in snapshot.flame:
            worker = row.get("worker", "")
            track = (f"{worker}/{row['name']}" if worker else row["name"])
            rows[track] = row
        return rows

    base_flame = flame_index(baseline)
    cand_flame = flame_index(candidate)
    base_timings = baseline.annex.get("flame_timings", {})
    cand_timings = candidate.annex.get("flame_timings", {})
    for track in sorted(set(base_flame) | set(cand_flame)):
        base_row = base_flame.get(track)
        cand_row = cand_flame.get(track)
        diff.flame.append((
            track,
            base_row["calls"] if base_row else None,
            cand_row["calls"] if cand_row else None,
            base_timings.get(track, {}).get("self_s"),
            cand_timings.get(track, {}).get("self_s"),
        ))

    base_counters = baseline.metrics.get("counters", {})
    cand_counters = candidate.metrics.get("counters", {})
    for name in sorted(set(base_counters) | set(cand_counters)):
        base_value = base_counters.get(name)
        cand_value = cand_counters.get(name)
        if base_value != cand_value or base_value is not None:
            diff.counters.append((name, base_value, cand_value))

    fields = sorted(set(baseline.provenance) | set(candidate.provenance))
    for name in fields:
        base_value = baseline.provenance.get(name)
        cand_value = candidate.provenance.get(name)
        explanation = ""
        if base_value != cand_value:
            explanation = _explanations_for([name])[name]
        diff.provenance.append(ProvenanceDelta(
            name=name, baseline=base_value, candidate=cand_value,
            explanation=explanation))
    return diff


# ----------------------------------------------------------------------
# Rendering (the `repro diff` dashboard)


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _fmt_delta(delta: Optional[float]) -> str:
    return f"{delta:+.4g}" if delta is not None else "-"


def _fmt_rel(rel: Optional[float]) -> str:
    return f"{rel:+.2%}" if rel is not None else "-"


def summary_section(diff: SnapshotDiff) -> "ReportSection":
    """Headline verdict counts plus the two canonical checksums."""
    from repro.experiments.report import ReportSection

    counts = diff.verdict_counts()
    rows = [
        ["baseline", f"{diff.baseline.describe()}"],
        ["candidate", f"{diff.candidate.describe()}"],
        ["canonical payloads",
         "identical" if diff.identical else "different"],
        ["points compared",
         len({d.point for d in diff.deltas})],
        ["points added / removed",
         f"{len(diff.added_points)} / {len(diff.removed_points)}"],
    ]
    for verdict in (VERDICT_REGRESSED, VERDICT_IMPROVED, VERDICT_CHANGED,
                    VERDICT_UNCHANGED, VERDICT_NEW, VERDICT_MISSING):
        rows.append([f"cells {verdict}", counts[verdict]])
    return ReportSection(
        "Diff summary", ["field", "value"], rows,
        note="Verdicts classify per-point metric cells under the "
             "threshold policy; only 'regressed' cells gate "
             "--fail-on-regress.")


def provenance_section(diff: SnapshotDiff) -> "ReportSection":
    """Provenance fields side by side with explanations."""
    from repro.experiments.report import ReportSection

    rows = []
    for delta in diff.provenance:
        rows.append([
            delta.name,
            _fmt_value(json.dumps(delta.baseline, sort_keys=True)
                       if isinstance(delta.baseline, (dict, list))
                       else delta.baseline),
            _fmt_value(json.dumps(delta.candidate, sort_keys=True)
                       if isinstance(delta.candidate, (dict, list))
                       else delta.candidate),
            delta.explanation or ("" if not delta.changed else "differs"),
        ])
    return ReportSection(
        "Provenance", ["field", "baseline", "candidate", "explanation"],
        rows,
        note="Changed identity fields are the *causes* to read next to "
             "the metric deltas below.")


def alignment_section(diff: SnapshotDiff) -> "ReportSection":
    """Added/removed grid points from the outer join."""
    from repro.experiments.report import ReportSection

    rows = [[key, "added (candidate only)"] for key in diff.added_points]
    rows += [[key, "removed (baseline only)"] for key in diff.removed_points]
    return ReportSection(
        "Grid alignment", ["point", "status"], rows,
        note="Points are outer-joined on grid coordinates "
             "(machine, W, C, P); these rows have no metric deltas.")


def metric_section(diff: SnapshotDiff,
                   unchanged: bool = False) -> "ReportSection":
    """The per-point metric delta grid (the heart of the diff)."""
    from repro.experiments.report import ReportSection

    rows = []
    for delta in diff.deltas:
        if not unchanged and delta.verdict == VERDICT_UNCHANGED:
            continue
        rows.append([
            delta.point,
            delta.metric,
            _fmt_value(delta.baseline),
            _fmt_value(delta.candidate),
            _fmt_delta(delta.abs_delta),
            _fmt_rel(delta.rel_delta),
            delta.verdict,
        ])
    shown = "all cells" if unchanged else "changed cells only"
    return ReportSection(
        "Per-point metric deltas",
        ["point", "metric", "baseline", "candidate", "Δ", "Δ%", "verdict"],
        rows,
        note=f"{shown}; direction-aware verdicts under the threshold "
             f"policy (tps/util higher-is-better, cpi/mpi "
             f"lower-is-better).")


def flame_section(diff: SnapshotDiff) -> "ReportSection":
    """Flame-table comparison: call counts (canonical) + self time."""
    from repro.experiments.report import ReportSection

    rows = []
    for track, base_calls, cand_calls, base_self, cand_self in diff.flame:
        self_delta = (cand_self - base_self
                      if base_self is not None and cand_self is not None
                      else None)
        rows.append([
            track,
            base_calls if base_calls is not None else "-",
            cand_calls if cand_calls is not None else "-",
            f"{base_self * 1000:.1f}" if base_self is not None else "-",
            f"{cand_self * 1000:.1f}" if cand_self is not None else "-",
            (f"{self_delta * 1000:+.1f}"
             if self_delta is not None else "-"),
        ])
    return ReportSection(
        "Flame table (phases)",
        ["phase", "calls (base)", "calls (cand)", "self ms (base)",
         "self ms (cand)", "Δ self ms"],
        rows,
        note="Call counts are canonical (deterministic); self times "
             "come from the timing annex and are informational — they "
             "never produce verdicts.")


def counters_section(diff: SnapshotDiff) -> "ReportSection":
    """Merged metrics-registry counters side by side."""
    from repro.experiments.report import ReportSection

    rows = []
    for name, base_value, cand_value in diff.counters:
        delta = (cand_value - base_value
                 if base_value is not None and cand_value is not None
                 else None)
        rows.append([name, _fmt_value(base_value), _fmt_value(cand_value),
                     _fmt_delta(delta)])
    return ReportSection(
        "Metrics counter deltas",
        ["counter", "baseline", "candidate", "Δ"], rows,
        note="Harness totals (runs, rounds, cache traffic, scheduler "
             "events): explanatory context, not verdicts.")


def build_diff_report(diff: SnapshotDiff,
                      title: Optional[str] = None,
                      unchanged: bool = False) -> "RunReport":
    """Assemble the Markdown/HTML dashboard for one diff.

    Sections with no rows (no misaligned points, no flame data on
    either side) are dropped.  ``unchanged`` includes unchanged metric
    cells in the delta grid (the default shows only movement).
    """
    from repro.experiments.report import RunReport

    if title is None:
        base_wl = diff.baseline.provenance.get("workload") or "baseline"
        cand_wl = diff.candidate.provenance.get("workload") or "candidate"
        title = f"Sweep diff — {base_wl} → {cand_wl}"
    report = RunReport(title=title)
    report.sections.append(summary_section(diff))
    report.sections.append(provenance_section(diff))
    alignment = alignment_section(diff)
    if alignment.rows:
        report.sections.append(alignment)
    report.sections.append(metric_section(diff, unchanged=unchanged))
    flame = flame_section(diff)
    if flame.rows:
        report.sections.append(flame)
    counters = counters_section(diff)
    if counters.rows:
        report.sections.append(counters)
    return report


__all__ = [
    "DEFAULT_METRIC_POLICIES",
    "MetricDelta",
    "MetricPolicy",
    "ProvenanceDelta",
    "REGRESSION_EXIT_CODE",
    "SnapshotDiff",
    "ThresholdPolicy",
    "ThresholdPolicyError",
    "VERDICT_CHANGED",
    "VERDICT_IMPROVED",
    "VERDICT_MISSING",
    "VERDICT_NEW",
    "VERDICT_REGRESSED",
    "VERDICT_UNCHANGED",
    "build_diff_report",
    "diff_snapshots",
]
