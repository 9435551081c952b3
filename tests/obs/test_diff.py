"""Tests for repro.obs.diff: the classify rule, verdicts, report, CLI.

Unit level uses synthetic snapshots (the sweep-report fakes); the CLI
class runs real fast sweeps through ``repro diff`` to pin the exit-code
contract CI gates on.
"""

import copy

import pytest

from repro.obs.diff import (
    DIRECTIONS,
    REGRESSION_EXIT_CODE,
    build_diff_report,
    classify,
    diff_snapshots,
)
from repro.obs.snapshot import SweepSnapshot
from tests.obs.test_snapshot import fake_snapshot


def perturbed(snapshot: SweepSnapshot, metric="tps",
              factor=0.9) -> SweepSnapshot:
    """A deep-copied snapshot with one metric scaled on every point."""
    other = SweepSnapshot.from_dict(copy.deepcopy(snapshot.to_dict()))
    for entry in other.points.values():
        entry["metrics"][metric] *= factor
    return other


class TestClassify:
    def test_directions_cover_all_point_metrics(self):
        from repro.obs.snapshot import POINT_METRICS

        assert set(DIRECTIONS) == set(POINT_METRICS)

    def test_higher_better_classification(self):
        assert classify("tps", 100.0, 90.0) == "regressed"
        assert classify("tps", 100.0, 110.0) == "improved"
        assert classify("tps", 100.0, 100.0) == "unchanged"

    def test_lower_better_classification(self):
        assert classify("cpi", 2.0, 2.5) == "regressed"
        assert classify("cpi", 2.0, 1.5) == "improved"

    def test_neutral_metrics_change_but_never_regress(self):
        assert classify("fixed_point_rounds", 3.0, 5.0) == "changed"
        # A metric DIRECTIONS does not name is neutral too.
        assert classify("custom_metric", 3.0, 5.0) == "changed"

    def test_one_sided_cells(self):
        assert classify("tps", None, 5.0) == "new"
        assert classify("tps", 5.0, None) == "missing"

    def test_tolerance_boundary(self):
        # REL_TOL * |baseline| = 1e-7 here: a smaller drop is float
        # noise, a larger one is a regression.
        assert classify("tps", 100.0, 100.0 - 5e-8) == "unchanged"
        assert classify("tps", 100.0, 100.0 - 2e-7) == "regressed"


class TestDiffSnapshots:
    def test_self_diff_is_all_unchanged(self):
        snapshot = fake_snapshot()
        diff = diff_snapshots(snapshot, snapshot)
        assert diff.identical
        assert not diff.has_regressions
        counts = diff.verdict_counts()
        assert counts["unchanged"] == len(diff.deltas) > 0
        assert diff.exit_code(fail_on_regress=True) == 0

    def test_perturbed_metric_regresses(self):
        base = fake_snapshot()
        diff = diff_snapshots(base, perturbed(base, "tps", 0.9))
        regressed = {(d.point, d.metric) for d in diff.regressions}
        assert len(regressed) == len(base.points)
        assert all(metric == "tps" for _point, metric in regressed)
        assert diff.exit_code(fail_on_regress=True) == REGRESSION_EXIT_CODE
        assert diff.exit_code(fail_on_regress=False) == 0

    def test_improvement_is_not_a_regression(self):
        base = fake_snapshot()
        diff = diff_snapshots(base, perturbed(base, "cpi", 0.9))
        assert not diff.has_regressions
        assert diff.verdict_counts()["improved"] == len(base.points)

    def test_grid_outer_join_reports_added_and_removed(self):
        base = fake_snapshot(warehouses=(10, 25))
        cand = fake_snapshot(warehouses=(25, 50))
        diff = diff_snapshots(base, cand)
        assert diff.added_points == ["odb-2003-w50-c400-p1"]
        assert diff.removed_points == ["odb-2003-w10-c80-p1"]
        # Only the common point contributes metric cells.
        assert {d.point for d in diff.deltas} == {"odb-2003-w25-c200-p1"}

    def test_deltas_carry_abs_and_rel(self):
        base = fake_snapshot()
        diff = diff_snapshots(base, perturbed(base, "tps", 0.5))
        cell = next(d for d in diff.deltas if d.metric == "tps")
        assert cell.abs_delta == pytest.approx(-cell.baseline / 2)
        assert cell.rel_delta == pytest.approx(-0.5)

    def test_provenance_changes_carry_explanations(self):
        base = fake_snapshot()
        cand = SweepSnapshot.from_dict(copy.deepcopy(base.to_dict()))
        cand.provenance["git_rev"] = "fedcba9876543210"
        diff = diff_snapshots(base, cand)
        row = next(p for p in diff.provenance if p.name == "git_rev")
        assert row.changed and "code" in row.explanation
        unchanged = next(p for p in diff.provenance if p.name == "seed")
        assert not unchanged.changed and unchanged.explanation == ""

    def test_counter_deltas_joined(self):
        base = fake_snapshot()
        cand = SweepSnapshot.from_dict(copy.deepcopy(base.to_dict()))
        cand.metrics["counters"]["cache.misses"] += 3
        diff = diff_snapshots(base, cand)
        row = next(r for r in diff.counters if r[0] == "cache.misses")
        assert row[2] - row[1] == 3

    def test_flame_join_includes_annex_self_times(self):
        base = fake_snapshot()
        diff = diff_snapshots(base, base)
        tracks = [row[0] for row in diff.flame]
        assert "run" in tracks
        run = next(row for row in diff.flame if row[0] == "run")
        assert run[1] == run[2]  # canonical calls on both sides
        assert run[3] is not None  # annex self time present


class TestDiffReport:
    def test_report_renders_deterministically(self):
        base = fake_snapshot()
        diff = diff_snapshots(base, perturbed(base, "tps", 0.9))
        first = build_diff_report(diff).to_markdown()
        second = build_diff_report(
            diff_snapshots(base, perturbed(base, "tps", 0.9))).to_markdown()
        assert first == second
        assert "regressed" in first and "Provenance" in first

    def test_unchanged_cells_hidden_by_default(self):
        base = fake_snapshot()
        diff = diff_snapshots(base, base)
        shown = build_diff_report(diff).to_markdown()
        assert "| tps |" not in shown
        full = build_diff_report(diff, unchanged=True).to_markdown()
        assert "| tps |" in full

    def test_html_renders(self):
        base = fake_snapshot()
        html = build_diff_report(diff_snapshots(base, base)).to_html()
        assert html.startswith("<!DOCTYPE html>")


class TestCliDiff:
    """End-to-end: the exit-code contract CI gates on."""

    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        from repro.cli import main

        root = tmp_path_factory.mktemp("clidiff")
        path = root / "base.snapshot.json"
        code = main(["sweep", "-p", "1", "--grid", "10", "--fast",
                     "-j", "1", "--snapshot", str(path)])
        assert code == 0 and path.exists()
        return path

    def test_self_diff_exits_zero(self, snapshot_path, tmp_path, capsys):
        from repro.cli import main

        code = main(["diff", str(snapshot_path), str(snapshot_path),
                     "--fail-on-regress", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "unchanged" in out and "regressed" not in out

    def test_perturbed_diff_exits_regression_code(self, snapshot_path,
                                                  tmp_path, capsys):
        from repro.cli import main

        base = SweepSnapshot.load(snapshot_path)
        worse = perturbed(base, "tps", 0.8)
        worse_path = worse.save(tmp_path / "worse.snapshot.json")
        code = main(["diff", str(snapshot_path), str(worse_path),
                     "--fail-on-regress", "--out", str(tmp_path)])
        assert code == REGRESSION_EXIT_CODE == 3
        assert "regressed" in capsys.readouterr().out
        # Without the flag the same diff reports but exits 0.
        assert main(["diff", str(snapshot_path), str(worse_path),
                     "--out", str(tmp_path)]) == 0

    def test_dropped_provenance_field_is_not_a_regression(
            self, snapshot_path, tmp_path):
        from repro.cli import main

        # A snapshot from before the event-queue choice was removed still
        # records it; diffing against a current one only reports it.
        old = SweepSnapshot.load(snapshot_path)
        old.provenance["scheduler"] = "heap"
        old_path = old.save(tmp_path / "old.snapshot.json")
        row = next(p for p in diff_snapshots(
            old, SweepSnapshot.load(snapshot_path)).provenance
            if p.name == "scheduler")
        assert row.changed
        assert main(["diff", str(old_path), str(snapshot_path),
                     "--fail-on-regress", "--out", str(tmp_path)]) == 0

    def test_usage_errors_exit_via_systemexit(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["diff", "--out", str(tmp_path)])  # no inputs at all
        with pytest.raises(SystemExit):
            main(["diff", "--workload", "odb-standard",
                  "--out", str(tmp_path)])  # one workload is not a diff
        with pytest.raises(SystemExit):
            main(["diff", "a", "b", "--thresholds", "x",
                  "--out", str(tmp_path)])  # no policy file option
