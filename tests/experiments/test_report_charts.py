"""Tests for text rendering, ASCII charts, and run-report dashboards."""

import json
from pathlib import Path

import pytest

from repro.experiments.charts import render_chart
from repro.experiments.configs import FAST_SETTINGS
from repro.experiments.parallel import PointTelemetry, RunSpec
from repro.experiments.records import ConfigResult
from repro.experiments.report import (
    RunReport,
    ReportSection,
    build_run_report,
    fault_timeline_section,
    phase_section,
    provenance_section,
    render_series,
    render_table,
    write_run_report,
)
from repro.faults import FaultPlan
from repro.obs.manifest import RunManifest
from repro.obs.provenance import emon_provenance
from repro.obs.tracing import Tracer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestRenderTable:
    def test_contains_title_headers_and_cells(self):
        text = render_table("My Title", ["a", "b"], [[1, 2.5], [30, "x"]])
        assert "My Title" in text
        assert "a" in text and "b" in text
        assert "30" in text and "x" in text

    def test_note_appended(self):
        text = render_table("T", ["c"], [[1]], note="remember this")
        assert text.endswith("remember this")

    def test_float_formatting(self):
        text = render_table("T", ["v"], [[1234.5], [0.123456], [1e-5], [0.0]])
        assert "1,234" in text  # thousands separator
        assert "0.123" in text
        assert "1.00e-05" in text

    def test_bool_formatting(self):
        text = render_table("T", ["v"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_columns_aligned(self):
        text = render_table("T", ["name", "v"], [["a", 1], ["bbbb", 22]])
        data_lines = text.splitlines()[4:]
        assert len({len(line) for line in data_lines}) == 1


class TestRenderSeries:
    def test_x_and_series_columns(self):
        text = render_series("S", "W", [10, 20],
                             {"tps": [100.0, 90.0], "cpi": [2.0, 3.0]})
        assert "W" in text and "tps" in text and "cpi" in text
        assert "90" in text

    def test_rows_in_x_order(self):
        text = render_series("S", "W", [10, 800], {"v": [1.0, 2.0]})
        lines = text.splitlines()
        assert lines[-2].lstrip().startswith("10")
        assert lines[-1].lstrip().startswith("800")


class TestRenderChart:
    def test_basic_chart_structure(self):
        text = render_chart("C", [0, 50, 100], {"y": [0.0, 5.0, 10.0]})
        assert text.splitlines()[0] == "C"
        assert "legend: o y" in text
        assert "o" in text

    def test_two_series_get_distinct_markers(self):
        text = render_chart("C", [0, 100],
                            {"a": [0.0, 1.0], "b": [1.0, 0.0]})
        assert "o a" in text and "x b" in text
        assert "o" in text and "x" in text

    def test_axis_extremes_labeled(self):
        text = render_chart("C", [10, 800], {"y": [2.0, 6.0]})
        assert "10" in text and "800" in text
        assert "6" in text  # y max label

    def test_rising_series_is_rising_on_grid(self):
        text = render_chart("C", [0, 100], {"y": [0.0, 10.0]},
                            width=40, height=10)
        rows = [line.split("|", 1)[1] for line in text.splitlines()
                if "|" in line]
        first_marker_rows = [i for i, row in enumerate(rows) if "o" in row]
        # Top rows hold the right (high) end, bottom rows the left end.
        top = rows[min(first_marker_rows)]
        bottom = rows[max(first_marker_rows)]
        assert top.rindex("o") > bottom.index("o")

    def test_validation(self):
        with pytest.raises(ValueError):
            render_chart("C", [], {"y": []})
        with pytest.raises(ValueError):
            render_chart("C", [1], {})
        with pytest.raises(ValueError):
            render_chart("C", [1, 2], {"y": [1.0]})
        with pytest.raises(ValueError):
            render_chart("C", [1, 2], {"y": [1.0, 2.0]}, width=5)

    def test_flat_series_does_not_crash(self):
        text = render_chart("C", [0, 10], {"y": [3.0, 3.0]})
        assert "o" in text

    def test_labels_rendered(self):
        text = render_chart("C", [0, 10], {"y": [0.0, 1.0]},
                            y_label="CPI", x_label="warehouses")
        assert "CPI" in text and "warehouses" in text


# ---------------------------------------------------------------------------
# Run-report dashboards


@pytest.fixture(scope="module")
def golden_result() -> ConfigResult:
    path = GOLDEN_DIR / "config_w50_p2_fast.json"
    return ConfigResult.from_dict(json.loads(path.read_text()))


def fixed_clock():
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += 1.0
        return state["now"]

    return clock


class TestRunReportRendering:
    def section(self):
        return ReportSection("Sec", ["k", "v"], [["a|b", 1.5], ["c", True]])

    def test_markdown_is_a_pipe_table_with_escaping(self):
        text = RunReport("Title", [self.section()]).to_markdown()
        assert text.startswith("# Title")
        assert "## Sec" in text
        assert "| k | v |" in text
        assert "a\\|b" in text          # cell pipes escaped
        assert "| yes |" in text        # bool formatting

    def test_html_is_self_contained_and_escaped(self):
        section = ReportSection("S", ["h"], [["<script>"]])
        text = RunReport("T<br>", [section]).to_html()
        assert text.startswith("<!DOCTYPE html>")
        assert "<script>" not in text
        assert "&lt;script&gt;" in text
        assert "http" not in text       # no external assets

    def test_write_run_report(self, tmp_path):
        report = RunReport("T", [self.section()])
        paths = write_run_report(report, tmp_path / "sub", "stem", html=True)
        assert [p.name for p in paths] == ["stem.md", "stem.html"]
        assert all(p.exists() for p in paths)

    def test_build_run_report_minimal(self, golden_result):
        # An untraced point without a manifest: nothing to time or trace.
        point = PointTelemetry(
            spec=RunSpec(50, 2, settings=FAST_SETTINGS),
            result=golden_result)
        report = build_run_report(point)
        titles = [s.title for s in report.sections]
        assert titles == ["Result summary",
                          "Counter provenance (xeon-mp-quad)"]
        assert "W=50" in report.title

    def test_build_run_report_full(self, golden_result):
        manifest = RunManifest(
            config_key="k", machine="xeon-mp-quad", warehouses=50,
            clients=8, processors=2, seed=1,
            settings_fingerprint="abc", created_unix=0.0,
            round_deltas=[{"round": 0, "tps": 90.0, "cpi": 4.5,
                           "user_cpi": 4.0, "os_cpi": 6.0,
                           "tps_delta": None, "cpi_delta": None}])
        tracer = Tracer(wall_clock=fixed_clock(), cpu_clock=fixed_clock())
        with tracer.span("run-configuration"):
            with tracer.span("system-des") as node:
                node.count("transactions", 10)
        plan = FaultPlan.from_dict({"seed": 3,
                                    "aborts": {"probability": 0.05}})
        point = PointTelemetry(
            spec=RunSpec(50, 2, settings=FAST_SETTINGS, faults=plan),
            result=golden_result, manifest=manifest,
            trace=tracer.to_dict())
        report = build_run_report(point)
        titles = [s.title for s in report.sections]
        assert titles == ["Run manifest", "Result summary",
                          "Fixed-point convergence", "Phase timings",
                          "Counter provenance (xeon-mp-quad)",
                          "Fault / retry timeline"]
        phases = report.sections[3]
        assert [row[0] for row in phases.rows] == ["run-configuration",
                                                   "· system-des"]
        assert phases.rows[1][5] == "transactions=10.0"


class TestPhaseSection:
    def test_nesting_rendered_with_dot_indent_and_share(self):
        tracer = Tracer(wall_clock=fixed_clock(), cpu_clock=fixed_clock())
        with tracer.span("root"):
            with tracer.span("child") as node:
                node.count("events", 42)
        section = phase_section(tracer)
        names = [row[0] for row in section.rows]
        assert names == ["root", "· child"]
        assert section.rows[0][4] == "100%"          # root share of itself
        assert "events=42" in section.rows[1][5]


class TestFaultTimelineSection:
    def test_events_sorted_and_observed_totals_last(self, golden_result):
        plan = FaultPlan.from_dict({
            "seed": 3,
            "disks": [{"disk": -1, "latency_factor": 2.0,
                       "outages": [[5.0, 6.0]]}],
            "aborts": {"probability": 0.05},
        })
        section = fault_timeline_section(plan, golden_result)
        kinds = [row[1] for row in section.rows]
        assert kinds[-2:] == ["observed aborts/txn", "observed retries/txn"]
        # t=0 rows (degradation, aborts) precede the t=5 outage.
        assert kinds.index("disk outage") > kinds.index("disk degradation")
        assert plan.fingerprint() in section.note


class TestProvenanceGolden:
    """Pin the rendered provenance section for the w50/p2 golden result.

    Regenerate (only for an intentional model/provenance change)::

        PYTHONPATH=src python -c "
        import json
        from pathlib import Path
        from repro.experiments.records import ConfigResult
        from repro.experiments.report import RunReport, provenance_section
        from repro.obs.provenance import emon_provenance
        golden = Path('tests/experiments/golden')
        r = ConfigResult.from_dict(json.loads(
            (golden / 'config_w50_p2_fast.json').read_text()))
        text = RunReport('Provenance golden',
                         [provenance_section(emon_provenance(r))]
                         ).to_markdown()
        (golden / 'report_w50_p2_provenance.md').write_text(text)
        "
    """

    def test_rendered_provenance_matches_golden(self, golden_result):
        expected = (GOLDEN_DIR / "report_w50_p2_provenance.md").read_text()
        section = provenance_section(emon_provenance(golden_result))
        text = RunReport("Provenance golden", [section]).to_markdown()
        assert text == expected, (
            "provenance rendering drifted from the committed golden "
            "(metric values, Table 2/4 wiring, or table formatting "
            "changed)")
