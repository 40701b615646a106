"""Tests for fault dictionaries and cause-effect diagnosis."""

import pytest

from repro.atpg import TestGenConfig as GenConfig
from repro.atpg import generate_tests
from repro.diagnosis import (
    build_pass_fail_dictionary,
    diagnose,
    expected_tests_to_first_fail,
    inject_and_observe,
)
from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.sim import PatternSet


@pytest.fixture(scope="module")
def lion_setup():
    from repro.circuit import lion_like

    circ = lion_like()
    faults = collapsed_fault_list(circ)
    tests = generate_tests(circ, faults, GenConfig(seed=13)).tests
    dictionary = build_pass_fail_dictionary(circ, faults, tests)
    return circ, faults, tests, dictionary


class TestPassFailDictionary:
    def test_all_faults_have_failing_tests(self, lion_setup):
        __, faults, __t, dictionary = lion_setup
        assert list(dictionary.faults) == faults
        assert dictionary.fail_matrix.any_rows().all()

    def test_masks_match_injection(self, lion_setup):
        circ, faults, tests, dictionary = lion_setup
        for fault in faults[::5]:
            observed = inject_and_observe(circ, fault, tests)
            idx = dictionary.faults.index(fault)
            assert dictionary.fail_matrix.row_int(idx) == observed

    def test_failing_tests_listing(self, lion_setup):
        __, faults, __t, dictionary = lion_setup
        fault = faults[0]
        failing = dictionary.failing_tests(fault)
        idx = dictionary.faults.index(fault)
        assert all(
            (dictionary.fail_matrix.row_int(idx) >> t) & 1 for t in failing
        )

    def test_width_checked(self, lion_setup):
        circ, faults, __t, __d = lion_setup
        with pytest.raises(SimulationError):
            build_pass_fail_dictionary(circ, faults, PatternSet.exhaustive(3))


class TestDiagnose:
    def test_injected_fault_is_top_candidate(self, lion_setup):
        circ, faults, tests, dictionary = lion_setup
        for fault in faults[::7]:
            observed = inject_and_observe(circ, fault, tests)
            report = diagnose(dictionary, observed)
            # The true fault must be an exact match (score 1.0); ties
            # with behaviourally identical faults are acceptable.
            assert fault in report.exact_matches()

    def test_exact_match_scores_one(self, lion_setup):
        circ, faults, tests, dictionary = lion_setup
        observed = inject_and_observe(circ, faults[0], tests)
        report = diagnose(dictionary, observed)
        assert report.candidates[0][1] == 1.0

    def test_perturbed_observation_still_ranks_true_fault(self, lion_setup):
        """Drop one failing test from the observation (a marginal defect
        that escaped once): the true fault should stay in the top 3."""
        circ, faults, tests, dictionary = lion_setup
        fault = faults[4]
        observed = inject_and_observe(circ, fault, tests)
        failing = [t for t in range(tests.num_patterns)
                   if (observed >> t) & 1]
        if len(failing) > 1:
            weakened = observed & ~(1 << failing[-1])
            report = diagnose(dictionary, weakened, max_candidates=40)
            assert fault in [f for f, __ in report.candidates[:3]]

    def test_mask_bounds_checked(self, lion_setup):
        __, __f, tests, dictionary = lion_setup
        with pytest.raises(SimulationError):
            diagnose(dictionary, 1 << (tests.num_patterns + 3))

    def test_empty_observation(self, lion_setup):
        __, __f, __t, dictionary = lion_setup
        report = diagnose(dictionary, 0)
        assert report.candidates == ()


class TestExpectedTestsToFirstFail:
    def test_matches_manual_average(self, lion_setup):
        __, faults, __t, dictionary = lion_setup
        from repro.utils.bitvec import iter_bits

        manual = [
            next(iter_bits(m)) + 1
            for m in dictionary.fail_matrix.to_bigints() if m
        ]
        assert expected_tests_to_first_fail(dictionary) == pytest.approx(
            sum(manual) / len(manual)
        )

    def test_steeper_order_fails_sooner(self, lion_setup):
        """Reordering the test set greedily must not increase the mean
        first-fail index — the tester-time version of Table 7."""
        circ, faults, tests, dictionary = lion_setup
        from repro.atpg import reorder_by_detection

        steep = reorder_by_detection(circ, faults, tests, greedy=True)
        steep_dict = build_pass_fail_dictionary(circ, faults, steep)
        assert expected_tests_to_first_fail(steep_dict) <= \
            expected_tests_to_first_fail(dictionary)

    def test_no_detected_faults_rejected(self, lion_setup):
        circ, faults, __t, __d = lion_setup
        empty = build_pass_fail_dictionary(
            circ, faults, PatternSet.from_vectors([], num_inputs=4)
        )
        with pytest.raises(SimulationError):
            expected_tests_to_first_fail(empty)
