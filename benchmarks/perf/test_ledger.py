"""Tests for the ledger's derivations, on made-up measurements.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import ledger
from repro.experiments.records import payload_checksum
from workloads import WORKLOADS


def span(name, duration, children=(), **counters):
    return {"name": name, "duration_s": duration, "counters": counters,
            "children": list(children)}


def fixed_point_round(index, des, prewarm, trace, solve):
    return span(f"fixed-point-round-{index}", des + trace + solve + 0.25, [
        span("system-des", des, [
            span("des-prewarm", prewarm),
            span("des-warmup", 0.5, transactions=400.0),
            span("des-measure", des - prewarm - 1.0, transactions=2500.0),
        ]),
        span("trace-generation", trace),
        span("solve-cpi", solve),
    ])


def two_round_point():
    rounds = [fixed_point_round(0, 5.0, 1.0, 3.0, 0.01),
              fixed_point_round(1, 4.0, 1.0, 2.0, 0.01)]
    run = sum(node["duration_s"] for node in rounds) + 0.1
    return {"spans": [span("run-configuration", run, rounds)]}


COUNTERS = {ledger.WALK_SECONDS: 2.0, ledger.WALK_REFS: 1000.0,
            ledger.DES_EVENTS: 5800.0}


class TestSelfTimes:
    def test_each_layer_is_its_span_minus_its_children(self):
        layers = ledger.point_layers(two_round_point(), COUNTERS)
        assert layers["prewarm_s"] == pytest.approx(2.0)
        assert layers["des_s"] == pytest.approx(9.0 - 2.0)
        assert layers["walk_s"] == pytest.approx(2.0)
        assert layers["gen_s"] == pytest.approx(5.0 - 2.0)
        assert layers["solve_s"] == pytest.approx(0.02)
        # Two round self-times (0.25 each) plus the run's own 0.1.
        assert layers["glue_s"] == pytest.approx(0.6)
        assert layers["transactions"] == 2 * 2900.0
        assert layers["events"] == 5800.0 and layers["refs"] == 1000.0

    def test_self_times_partition_the_run_span(self):
        trace = two_round_point()
        layers = ledger.point_layers(trace, COUNTERS)
        run = trace["spans"][0]["duration_s"]
        assert sum(layers[name] for name in ledger.LAYER_TIMES) \
            == pytest.approx(run)
        assert ledger.coverage(layers, run * 1.04) \
            == pytest.approx(1 / 1.04)

    def test_missing_walk_timers_leave_generation_whole(self):
        layers = ledger.point_layers(two_round_point(), {})
        assert layers["walk_s"] == 0.0
        assert layers["gen_s"] == pytest.approx(5.0)

    def test_workload_layers_take_medians_and_total_ratios(self):
        short = ledger.point_layers(two_round_point(), COUNTERS)
        long = dict(short, des_s=3 * short["des_s"], events=2 * 5800.0)
        metrics = ledger.layer_metrics([short, long, short],
                                       [10.0, 20.0, 10.0])
        assert metrics["odb.des_s"] == pytest.approx(short["des_s"])
        assert metrics["sim.events_per_s"] == pytest.approx(
            4 * 5800.0 / (5 * short["des_s"]))
        assert metrics["odb.prewarm_share"] == pytest.approx(6.0 / 40.0)
        assert metrics["sim.events_per_txn"] == pytest.approx(
            4 * 5800.0 / (3 * 5800.0))


class TestExecutor:
    def test_overhead_and_efficiency(self):
        metrics = ledger.executor_metrics(10.0, [4.0, 4.0, 6.0, 4.0], 2,
                                          first_done_s=4.5,
                                          first_wall_s=4.0)
        assert metrics["executor.efficiency"] == pytest.approx(18 / 20)
        assert metrics["executor.overhead_s"] == pytest.approx(10.0 - 9.0)
        assert metrics["executor.first_result_s"] == pytest.approx(0.5)
        assert metrics["executor.workers"] == 2.0

    def test_a_perfect_serial_loop_has_no_overhead(self):
        metrics = ledger.executor_metrics(9.0, [4.0, 5.0], 1, 4.0, 4.0)
        assert metrics["executor.efficiency"] == pytest.approx(1.0)
        assert metrics["executor.overhead_s"] == pytest.approx(0.0)


def test_instrumentation_overhead_pairs_each_point_with_itself():
    # A long point and a short one, each 5% slower traced, and one point
    # a burst of host slowness doubled: the median ratio ignores both.
    timed = [10.0, 1.0, 2.0]
    traced = [10.5, 1.05, 4.0]
    assert ledger.instrumentation_overhead(timed, traced) \
        == pytest.approx(0.05)


class TestReferenceSeconds:
    def test_a_slower_host_scales_its_seconds_down(self):
        ref = ledger.REFERENCE_CALIBRATION_S
        assert ledger.reference_scale(ref, ref) == pytest.approx(1.0)
        # Twice as slow on average over the two calibrations.
        assert ledger.reference_scale(1.5 * ref, 2.5 * ref) \
            == pytest.approx(0.5)

    def test_calibration_leaves_the_collector_as_it_found_it(self):
        import gc

        assert ledger.calibrate() > 0.0 and gc.isenabled()
        gc.disable()
        try:
            ledger.calibrate()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestPercentiles:
    def test_small_samples_report_only_the_median(self):
        assert ledger.percentiles([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0}
        assert "p90" not in ledger.percentiles(range(99))

    def test_a_tail_needs_ten_samples_beyond_it(self):
        summary = ledger.percentiles(range(1, 101))
        assert summary["p90"] == 90 and "p99" not in summary
        assert ledger.percentiles(range(1, 1001))["p99"] == 990


class TestPayloadChecks:
    PAYLOAD = {"tps": 812.5, "cpi": {"cpi": 2.71}, "warehouses": 100}

    def test_agreeing_points_pass(self):
        checksum = payload_checksum(self.PAYLOAD)
        assert ledger.payload_failures([checksum, checksum],
                                       {1: checksum}, [checksum]) == {}

    def test_a_perturbed_payload_counts_as_failed(self):
        good = payload_checksum(self.PAYLOAD)
        bad = payload_checksum(dict(self.PAYLOAD, tps=812.5000001))
        assert ledger.payload_failures([bad], {}, [good]) \
            == {0: "differs from reference.json"}
        assert ledger.payload_failures([good, bad], {1: good}, None) \
            == {1: "traced payload differs"}

    def test_a_raising_point_counts_as_failed(self):
        assert ledger.payload_failures([None], {}, None) == {0: "raised"}

    def test_points_beyond_the_reference_are_not_compared(self):
        checksum = payload_checksum(self.PAYLOAD)
        assert ledger.payload_failures([checksum, "other"], {}, [checksum]) \
            == {}


def test_benchmark_names_the_workloads_this_package_runs():
    bench = json.loads((Path(__file__).resolve().parents[2]
                        / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [item["name"] for item in bench["workloads"]] == list(WORKLOADS)
