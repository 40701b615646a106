"""Transition-fault experiment harness, on a two-circuit subset.

Includes the PR's acceptance check: the ADI-driven dynamic orders give
*steeper* fault-coverage curves (lower AVE) than the original order on
the suite circuits.
"""

import pytest

from repro.experiments import (
    CURVE_ORDERS,
    ExperimentRunner,
    format_transition,
    run_transition,
)
from repro.experiments.transition import TransitionRow, averages
from repro.sim.patterns import PatternPairSet

SMALL = ["irs208", "irs298"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(seed=2005)


@pytest.fixture(scope="module")
def rows(runner):
    return run_transition(runner, SMALL)


class TestPipeline:
    def test_transition_flow_shapes(self, runner):
        flow = runner.flow("irs208", "transition")
        num_faults = len(flow.faults())
        assert num_faults > 0
        assert isinstance(flow.selection().patterns, PatternPairSet)
        assert flow.adi().num_vectors == flow.selection().num_vectors
        assert len(flow.adi().faults) == num_faults

    def test_rows_shape(self, rows):
        assert [r.circuit for r in rows] == SMALL
        for row in rows:
            for order in CURVE_ORDERS:
                assert row.tests[order] > 0
                assert 0.0 < row.coverage[order] <= 1.0
                assert row.ratios[order] > 0.0
            assert row.ratios["orig"] == 1.0
            assert row.num_pairs > 0
            assert row.num_faults > row.tests["orig"]

    def test_permutations_and_caching(self, runner):
        flow = runner.flow("irs208", "transition")
        perm = flow.permutation("dynm")
        assert sorted(perm) == list(range(len(flow.faults())))
        assert flow.tests("dynm") is \
            runner.flow("irs208", "transition").tests("dynm")

    def test_unknown_order_raises(self, runner):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="unknown order"):
            runner.flow("irs208", "transition").permutation("bogus")


class TestAcceptance:
    def test_dynamic_orders_steeper_than_orig(self, rows):
        """ADI ordering must pay off on the transition workload."""
        for row in rows:
            assert row.ratios["dynm"] < 1.0, row.circuit
            assert row.ratios["0dynm"] < 1.0, row.circuit

    def test_coverage_identical_across_orders(self, rows):
        # The order changes when faults are detected, never whether.
        for row in rows:
            values = set(round(v, 6) for v in row.coverage.values())
            assert len(values) == 1, row.circuit


class TestReporting:
    def test_averages(self, rows):
        avg = averages(rows)
        for order in CURVE_ORDERS:
            assert avg["tests"][order] > 0
        assert avg["ave_ratio"]["orig"] == pytest.approx(1.0)

    def test_format_contains_rows_and_average(self, rows):
        text = format_transition(rows)
        assert "Transition faults" in text
        for name in SMALL:
            assert name in text
        assert "average" in text
        assert "AVE dynm/orig" in text

    def test_average_tests_print_one_decimal(self):
        rows = [TransitionRow(name, 10, 20,
                              tests={o: count for o in CURVE_ORDERS},
                              coverage={o: 1.0 for o in CURVE_ORDERS},
                              ratios={o: 1.0 for o in CURVE_ORDERS})
                for name, count in (("one", 95), ("two", 96))]
        average = format_transition(rows).splitlines()[-1].split()
        assert average == (["average"] + ["95.5"] * len(CURVE_ORDERS)
                           + ["1.000"] * (len(CURVE_ORDERS) - 1))
