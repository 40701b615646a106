"""Transition-fault experiment harness, on a two-circuit subset.

Includes the PR's acceptance check: the ADI-driven dynamic orders give
*steeper* fault-coverage curves (lower AVE) than the original order on
the suite circuits.
"""

import pytest

from repro.experiments import (
    ExperimentRunner,
    TRANSITION_ORDERS,
    format_transition,
    format_transition_figure,
    run_transition,
    run_transition_figure,
)
from repro.experiments.transition import averages
from repro.sim.patterns import PatternPairSet

SMALL = ["irs208", "irs298"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(seed=2005)


@pytest.fixture(scope="module")
def rows(runner):
    return run_transition(runner, SMALL)


class TestPipeline:
    def test_prepare_transition_shapes(self, runner):
        prepared = runner.prepare("irs208", "transition")
        assert prepared.num_faults > 0
        assert isinstance(prepared.selection.patterns, PatternPairSet)
        assert prepared.adi.num_vectors == prepared.selection.num_vectors
        assert len(prepared.adi.faults) == prepared.num_faults

    def test_rows_shape(self, rows):
        assert [r.circuit for r in rows] == SMALL
        for row in rows:
            for order in TRANSITION_ORDERS:
                assert row.tests[order] > 0
                assert 0.0 < row.coverage[order] <= 1.0
                assert row.ave[order] > 0.0
            assert row.num_pairs > 0
            assert row.num_faults > row.tests["orig"]

    def test_permutations_and_caching(self, runner):
        perm = runner.order_permutation("irs208", "dynm", "transition")
        prepared = runner.prepare("irs208", "transition")
        assert sorted(perm) == list(range(prepared.num_faults))
        assert runner.testgen("irs208", "dynm", "transition") is \
            runner.testgen("irs208", "dynm", "transition")

    def test_unknown_order_raises(self, runner):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="unknown order"):
            runner.order_permutation("irs208", "bogus", "transition")


class TestAcceptance:
    def test_dynamic_orders_steeper_than_orig(self, rows):
        """ADI ordering must pay off on the transition workload."""
        for row in rows:
            assert row.ave_ratio("dynm") < 1.0, row.circuit
            assert row.ave_ratio("0dynm") < 1.0, row.circuit

    def test_coverage_identical_across_orders(self, rows):
        # The order changes when faults are detected, never whether.
        for row in rows:
            values = set(round(v, 6) for v in row.coverage.values())
            assert len(values) == 1, row.circuit


class TestReporting:
    def test_averages(self, rows):
        avg = averages(rows)
        for order in TRANSITION_ORDERS:
            assert avg["tests"][order] > 0
        assert avg["ave_ratio"]["orig"] == pytest.approx(1.0)

    def test_format_contains_rows_and_average(self, rows):
        text = format_transition(rows)
        assert "Transition faults" in text
        for name in SMALL:
            assert name in text
        assert "average" in text
        assert "AVE dynm/orig" in text

    def test_figure_points_normalized(self, runner):
        result = run_transition_figure(runner, circuit="irs208")
        assert set(result.points) == set(TRANSITION_ORDERS)
        for order, points in result.points.items():
            assert points, order
            xs = [x for x, _ in points]
            ys = [y for _, y in points]
            assert all(0 < x <= 1.0 for x in xs)
            assert all(0 <= y <= 1.0 for y in ys)
            assert ys == sorted(ys)
        text = format_transition_figure(result)
        assert "irs208" in text
