"""Tests for static compaction and [7]-style test reordering."""

import pytest

from repro.adi import ave_from_curve
from repro.atpg import TestGenConfig as GenConfig
from repro.atpg import (
    detection_matrix,
    generate_tests,
    greedy_cover_compaction,
    reorder_by_detection,
    reverse_order_compaction,
)
from repro.faults import collapsed_fault_list
from repro.fsim import coverage_curve, drop_simulate
from repro.sim import PatternSet

from helpers import generated_circuit


@pytest.fixture(scope="module")
def lion_setup():
    from repro.circuit import lion_like

    circ = lion_like()
    faults = collapsed_fault_list(circ)
    # A deliberately padded test set: the ATPG set plus random extras.
    base = generate_tests(circ, faults, GenConfig(seed=6)).tests
    padded = base.concat(PatternSet.random(4, 12, seed=7))
    return circ, faults, padded


class TestDetectionMatrix:
    def test_matrix_matches_drop_sim(self, lion_setup):
        circ, faults, tests = lion_setup
        matrix = detection_matrix(circ, faults, tests)
        assert len(matrix) == tests.num_patterns
        union = 0
        for word in matrix:
            union |= word
        detected = drop_simulate(circ, faults, tests).num_detected
        assert union.bit_count() == detected

    @pytest.mark.parametrize("width", [1, 64, 65, 130])
    def test_matrix_is_transposed_serial_words(self, width):
        """Bit ``i`` of test ``t``'s word is bit ``t`` of fault ``i``'s
        serial detection word, across word boundaries on both axes."""
        from repro.fsim.serial import detection_word_serial

        circ = generated_circuit(5, num_inputs=8, num_gates=40)
        faults = collapsed_fault_list(circ)
        assert len(faults) > 64
        tests = PatternSet.random(circ.num_inputs, width, seed=width)
        matrix = detection_matrix(circ, faults, tests)
        assert len(matrix) == width
        for i, fault in enumerate(faults):
            word = detection_word_serial(circ, tests, fault)
            assert all((matrix[t] >> i) & 1 == (word >> t) & 1
                       for t in range(width)), fault


class TestReverseOrderCompaction:
    def test_coverage_preserved(self, lion_setup):
        circ, faults, tests = lion_setup
        result = reverse_order_compaction(circ, faults, tests)
        assert result.detected_after == result.detected_before
        after = drop_simulate(circ, faults, result.tests)
        before = drop_simulate(circ, faults, tests)
        assert after.num_detected == before.num_detected

    def test_actually_removes_tests(self, lion_setup):
        circ, faults, tests = lion_setup
        result = reverse_order_compaction(circ, faults, tests)
        assert result.removed > 0
        assert result.original_size == tests.num_patterns
        assert len(result.kept_indices) == result.tests.num_patterns

    def test_kept_indices_sorted(self, lion_setup):
        circ, faults, tests = lion_setup
        result = reverse_order_compaction(circ, faults, tests)
        assert result.kept_indices == sorted(result.kept_indices)

    def test_idempotent(self, lion_setup):
        circ, faults, tests = lion_setup
        once = reverse_order_compaction(circ, faults, tests)
        twice = reverse_order_compaction(circ, faults, once.tests)
        assert twice.tests.num_patterns <= once.tests.num_patterns


class TestGreedyCoverCompaction:
    def test_coverage_preserved(self, lion_setup):
        circ, faults, tests = lion_setup
        result = greedy_cover_compaction(circ, faults, tests)
        assert result.detected_after == result.detected_before

    def test_no_larger_than_reverse_order(self, lion_setup):
        circ, faults, tests = lion_setup
        greedy = greedy_cover_compaction(circ, faults, tests)
        reverse = reverse_order_compaction(circ, faults, tests)
        assert greedy.tests.num_patterns <= reverse.tests.num_patterns

    def test_greedy_order_is_steep(self, lion_setup):
        """Greedy keeps most-detecting tests first: the curve of the
        compacted set must be at least as steep as the original set's."""
        circ, faults, tests = lion_setup
        result = greedy_cover_compaction(circ, faults, tests)
        original_ave = ave_from_curve(coverage_curve(circ, faults, tests))
        compacted_ave = ave_from_curve(
            coverage_curve(circ, faults, result.tests)
        )
        assert compacted_ave <= original_ave


class TestReorderByDetection:
    def test_is_permutation(self, lion_setup):
        circ, faults, tests = lion_setup
        for greedy in (True, False):
            reordered = reorder_by_detection(circ, faults, tests,
                                             greedy=greedy)
            assert reordered.num_patterns == tests.num_patterns
            assert sorted(
                reordered.as_integer(p) for p in range(len(reordered))
            ) == sorted(tests.as_integer(p) for p in range(len(tests)))

    def test_reordering_steepens_curve(self, lion_setup):
        circ, faults, tests = lion_setup
        before = ave_from_curve(coverage_curve(circ, faults, tests))
        greedy = reorder_by_detection(circ, faults, tests, greedy=True)
        after = ave_from_curve(coverage_curve(circ, faults, greedy))
        assert after <= before

    def test_greedy_at_least_as_steep_as_static(self):
        circ = generated_circuit(15, num_inputs=8, num_gates=40,
                                 num_outputs=5)
        faults = collapsed_fault_list(circ)
        tests = PatternSet.random(8, 40, seed=9)
        greedy = reorder_by_detection(circ, faults, tests, greedy=True)
        static = reorder_by_detection(circ, faults, tests, greedy=False)
        greedy_ave = ave_from_curve(coverage_curve(circ, faults, greedy))
        static_ave = ave_from_curve(coverage_curve(circ, faults, static))
        assert greedy_ave <= static_ave * 1.05  # greedy wins or ties

    def test_coverage_unchanged_by_reorder(self, lion_setup):
        circ, faults, tests = lion_setup
        reordered = reorder_by_detection(circ, faults, tests)
        a = drop_simulate(circ, faults, tests).num_detected
        b = drop_simulate(circ, faults, reordered).num_detected
        assert a == b
