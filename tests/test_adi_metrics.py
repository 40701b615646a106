"""Tests for coverage-curve metrics (AVE, paper Section 4)."""

import pytest

from repro.adi import ave_from_curve, ave_ratios, coverage_curve, curve_report
from repro.adi.metrics import CurveReport
from repro.errors import ExperimentError
from repro.experiments.figure1 import figure_from_reports
from repro.faults import collapsed_fault_list
from repro.atpg import generate_tests
from repro.sim import PatternSet


class TestAveFromCurve:
    def test_single_test_detects_all(self):
        # All faults at test 1: AVE = 1.
        assert ave_from_curve([10]) == 1.0

    def test_uniform_detection(self):
        # 1 fault per test over 4 tests: AVE = (1+2+3+4)/4 = 2.5.
        assert ave_from_curve([1, 2, 3, 4]) == 2.5

    def test_steeper_is_lower(self):
        steep = ave_from_curve([9, 10, 10, 10])
        shallow = ave_from_curve([1, 2, 3, 10])
        assert steep < shallow

    def test_paper_formula_by_hand(self):
        # n = [3, 3, 7]: 3 faults at test 1, 0 at 2, 4 at 3.
        # AVE = (1*3 + 2*0 + 3*4) / 7 = 15/7.
        assert ave_from_curve([3, 3, 7]) == pytest.approx(15 / 7)

    def test_empty_curve_rejected(self):
        with pytest.raises(ExperimentError):
            ave_from_curve([])

    def test_zero_detection_rejected(self):
        with pytest.raises(ExperimentError):
            ave_from_curve([0, 0])

    def test_decreasing_curve_rejected(self):
        with pytest.raises(ExperimentError):
            ave_from_curve([5, 3])


class TestCurveReport:
    @pytest.fixture(scope="class")
    def lion_report(self):
        from repro.circuit import lion_like

        circ = lion_like()
        faults = collapsed_fault_list(circ)
        result = generate_tests(circ, faults)
        return faults, curve_report(faults, result.tests,
                                    result.detected_per_test)

    def test_report_shape(self, lion_report):
        faults, report = lion_report
        assert report.total_faults == len(faults)
        assert report.num_detected == len(faults)
        assert report.curve == tuple(sorted(report.curve))

    def test_figure_points_range(self, lion_report):
        __, report = lion_report
        points = figure_from_reports(
            "lion", report.total_faults, {"orig": report}).points["orig"]
        assert len(points) == report.num_tests
        assert points[-1] == (1.0, report.num_detected / report.total_faults)
        for x, y in points:
            assert 0 < x <= 1 and 0 <= y <= 1

    def test_ave_accessible(self, lion_report):
        __, report = lion_report
        assert report.ave >= 1.0

    def test_empty_report_points(self):
        report = CurveReport(curve=(), total_faults=0)
        assert figure_from_reports(
            "empty", 0, {"orig": report}).points == {"orig": []}
        assert report.num_detected == 0


class TestCurveFromDropCounts:
    """``curve_report``: the test-generation loop's drop counts folded
    into the curve, with no simulation."""

    @pytest.fixture(scope="class")
    def lion_run(self):
        from repro.circuit import lion_like

        circ = lion_like()
        faults = collapsed_fault_list(circ)
        return circ, faults, generate_tests(circ, faults)

    def test_fold_equals_simulated_curve(self, lion_run):
        circ, faults, result = lion_run
        folded = curve_report(faults, result.tests, result.detected_per_test)
        assert folded.curve == tuple(
            coverage_curve(circ, faults, result.tests))
        assert folded.total_faults == len(faults)

    @pytest.mark.parametrize("change, message", [
        (lambda counts: counts[:-1], "drop counts for"),
        (lambda counts: counts + [0], "drop counts for"),
        (lambda counts: [-1] + counts[1:], "non-negative"),
        (lambda counts: [counts[0] + 1000] + counts[1:], "more than"),
    ], ids=["short", "long", "negative", "too-many"])
    def test_inconsistent_counts_raise(self, lion_run, change, message):
        __, faults, result = lion_run
        with pytest.raises(ExperimentError, match=message):
            curve_report(faults, result.tests,
                         change(list(result.detected_per_test)))

    def test_no_tests_no_curve(self, lion_run):
        __, faults, result = lion_run
        report = curve_report(faults, result.tests.take(0), [])
        assert report == CurveReport(curve=(), total_faults=len(faults))


class TestAveRatios:
    def test_baseline_is_one(self):
        reports = {
            "orig": CurveReport(curve=(1, 2, 4), total_faults=4),
            "dynm": CurveReport(curve=(3, 4, 4), total_faults=4),
        }
        ratios = ave_ratios(reports)
        assert ratios["orig"] == 1.0
        assert ratios["dynm"] < 1.0

    def test_missing_baseline_rejected(self):
        with pytest.raises(ExperimentError):
            ave_ratios({"dynm": CurveReport(curve=(1,), total_faults=1)})
