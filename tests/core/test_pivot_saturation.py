"""Tests for pivot analysis, saturation search, extrapolation, baselines."""

import pytest

from repro.core.baselines import cached_setup_model, single_line_model
from repro.core.extrapolation import evaluate_extrapolation
from repro.core.pivot import pivot_point, representative_configuration
from tests.core.saturation_driver import clients_for_utilization


def knee_series(knee=120.0, slope1=0.02, slope2=0.001, base=2.0):
    xs = [10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0, 600.0, 800.0]
    ys = []
    for x in xs:
        if x <= knee:
            ys.append(base + slope1 * x)
        else:
            ys.append(base + slope1 * knee + slope2 * (x - knee))
    return xs, ys


class TestPivot:
    def test_pivot_near_knee(self):
        xs, ys = knee_series(knee=120.0)
        analysis = pivot_point(xs, ys, metric="cpi", processors=4)
        assert analysis.has_pivot
        assert analysis.pivot_warehouses == pytest.approx(120.0, rel=0.15)

    def test_regions_split_points(self):
        xs, ys = knee_series()
        analysis = pivot_point(xs, ys)
        cached_x, _ = analysis.cached_region()
        scaled_x, _ = analysis.scaled_region()
        assert list(cached_x) + list(scaled_x) == sorted(xs)

    def test_representative_configuration(self):
        xs, ys = knee_series(knee=120.0)
        analysis = pivot_point(xs, ys)
        rep = representative_configuration(analysis)
        assert rep > analysis.pivot_warehouses
        assert rep in [int(x) for x in xs]

    def test_representative_with_custom_candidates(self):
        xs, ys = knee_series(knee=120.0)
        analysis = pivot_point(xs, ys)
        assert representative_configuration(analysis, [100, 200, 500]) == 200

    def test_representative_none_above_pivot(self):
        xs, ys = knee_series(knee=120.0)
        analysis = pivot_point(xs, ys)
        with pytest.raises(ValueError):
            representative_configuration(analysis, [10, 50, 100])


class TestSaturation:
    @staticmethod
    def utilization_model(clients, per_client=0.12, cap=1.0):
        return min(cap, clients * per_client)

    def test_finds_smallest_satisfying_count(self):
        result = clients_for_utilization(self.utilization_model, target=0.90)
        assert result.clients == 8  # 8 * 0.12 = 0.96 >= 0.9 > 7 * 0.12
        assert result.reached_target

    def test_unreachable_reports_io_bound(self):
        result = clients_for_utilization(
            lambda c: min(0.6, c * 0.1), target=0.90, maximum=32)
        assert not result.reached_target
        assert result.clients == 32
        assert result.utilization == pytest.approx(0.6)

    def test_caches_measurements(self):
        calls = []

        def measure(clients):
            calls.append(clients)
            return self.utilization_model(clients)

        clients_for_utilization(measure, target=0.90)
        assert len(calls) == len(set(calls))  # no duplicate evaluations

    def test_minimum_already_sufficient(self):
        result = clients_for_utilization(lambda c: 1.0, target=0.90)
        assert result.clients == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            clients_for_utilization(lambda c: 1.0, target=0.0)
        with pytest.raises(ValueError):
            clients_for_utilization(lambda c: 1.0, minimum=0)
        with pytest.raises(ValueError):
            clients_for_utilization(lambda c: 1.0, minimum=10, maximum=5)


class TestBaselines:
    def test_single_line(self):
        predict = single_line_model([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert predict(10.0) == pytest.approx(11.0)

    def test_cached_setup_uses_smallest_config(self):
        predict = cached_setup_model([100.0, 10.0, 50.0], [5.0, 2.0, 3.0])
        assert predict(800.0) == 2.0

    def test_cached_setup_validation(self):
        with pytest.raises(ValueError):
            cached_setup_model([], [])
        with pytest.raises(ValueError):
            cached_setup_model([1.0], [])


class TestExtrapolation:
    def test_pivot_model_beats_baselines_on_knee_data(self):
        xs, ys = knee_series(knee=120.0)
        reports = {r.model: r
                   for r in evaluate_extrapolation(xs, ys, 300.0)}
        pivot_err = reports["pivot-scaled-line"].max_relative_error
        assert pivot_err < reports["single-line"].max_relative_error
        assert pivot_err < reports["cached-setup"].max_relative_error
        assert pivot_err < 0.02

    def test_reports_cover_test_points(self):
        xs, ys = knee_series()
        reports = evaluate_extrapolation(xs, ys, 300.0)
        for report in reports:
            assert all(w > 300.0 for w in report.test_warehouses)
            assert len(report.predictions) == len(report.actuals)

    def test_validation(self):
        xs, ys = knee_series()
        with pytest.raises(ValueError):
            evaluate_extrapolation(xs, ys, 20.0)  # too few training points
        with pytest.raises(ValueError):
            evaluate_extrapolation(xs, ys, 10_000.0)  # nothing to test
        with pytest.raises(KeyError):
            evaluate_extrapolation(xs, ys, 300.0, models=["nope"])

    def test_error_metrics(self):
        xs, ys = knee_series()
        report = evaluate_extrapolation(xs, ys, 300.0,
                                        models=["cached-setup"])[0]
        assert report.max_relative_error >= report.mean_relative_error >= 0
