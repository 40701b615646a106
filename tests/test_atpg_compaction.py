"""Tests for [7]-style test reordering and its per-test detection words."""

import pytest

from repro.adi import ave_from_curve, coverage_curve
from repro.atpg import TestGenConfig as GenConfig
from repro.atpg import detection_matrix, generate_tests, reorder_by_detection
from repro.faults import collapsed_fault_list
from repro.fsim import BACKEND_ENV_VAR
from repro.fsim.serial import detection_word_serial
from repro.sim import PatternSet
from repro.utils.bitvec import iter_bits

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


@pytest.fixture(scope="module")
def serial_setup():
    """A generated circuit, 70 random tests and their per-test words
    built from the serial oracle."""
    circ = generated_circuit(7, num_inputs=8, num_gates=40)
    faults = collapsed_fault_list(circ)
    tests = PatternSet.random(circ.num_inputs, 70, seed=3)
    words = [0] * tests.num_patterns
    for i, fault in enumerate(faults):
        for t in iter_bits(detection_word_serial(circ, tests, fault)):
            words[t] |= 1 << i
    return circ, faults, tests, words


class TestDetectionMatrix:
    def test_matrix_matches_coverage_curve(self, lion_setup):
        circ, faults, tests = lion_setup
        matrix = detection_matrix(circ, faults, tests)
        assert len(matrix) == tests.num_patterns
        union = 0
        for word in matrix:
            union |= word
        detected = coverage_curve(circ, faults, tests)[-1]
        assert union.bit_count() == detected

    @pytest.mark.parametrize("width", [1, 64, 65, 130])
    def test_matrix_is_transposed_serial_words(self, width):
        """Bit ``i`` of test ``t``'s word is bit ``t`` of fault ``i``'s
        serial detection word, across word boundaries on both axes."""
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

    @pytest.mark.parametrize("backend", ["bigint", "numpy"])
    def test_matrix_same_on_each_engine(self, backend, serial_setup,
                                        monkeypatch):
        """The words do not depend on the engine ``$REPRO_FSIM_BACKEND``
        names."""
        circ, faults, tests, expected = serial_setup
        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        assert detection_matrix(circ, faults, tests) == expected

    def test_empty_test_set(self, lion_setup):
        circ, faults, __ = lion_setup
        empty = PatternSet.from_vectors([], num_inputs=circ.num_inputs)
        assert detection_matrix(circ, faults, empty) == []
        assert reorder_by_detection(circ, faults, empty) == empty


def detection_counts(circ, faults, tests):
    """Faults each test detects, in the order of ``tests``."""
    return [word.bit_count()
            for word in detection_matrix(circ, faults, tests)]


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
        a = coverage_curve(circ, faults, tests)[-1]
        b = coverage_curve(circ, faults, reordered)[-1]
        assert a == b

    def test_static_order_is_stable_sort_by_count(self, small_circuit):
        """``greedy=False``: detection counts never rise along the new
        order, and tests with equal counts keep their relative order."""
        faults = collapsed_fault_list(small_circuit)
        tests = PatternSet.random(small_circuit.num_inputs, 24, seed=11)
        static = reorder_by_detection(small_circuit, faults, tests,
                                      greedy=False)
        counts = detection_counts(small_circuit, faults, static)
        assert counts == sorted(counts, reverse=True)
        before = detection_counts(small_circuit, faults, tests)
        for count in set(counts):
            assert [static.as_integer(p) for p in range(len(static))
                    if counts[p] == count] == \
                [tests.as_integer(p) for p in range(len(tests))
                 if before[p] == count]

    def test_greedy_takes_largest_gain_first(self, small_circuit):
        """``greedy=True``: every test adds at least as many new faults
        as any test after it would at that point, and a tie goes to the
        test detecting more faults in total."""
        faults = collapsed_fault_list(small_circuit)
        tests = PatternSet.random(small_circuit.num_inputs, 24, seed=12)
        greedy = reorder_by_detection(small_circuit, faults, tests,
                                      greedy=True)
        matrix = detection_matrix(small_circuit, faults, greedy)
        covered = 0
        for k, word in enumerate(matrix):
            gain = (word & ~covered).bit_count()
            for later in matrix[k + 1:]:
                later_gain = (later & ~covered).bit_count()
                assert gain >= later_gain
                if gain == later_gain:
                    assert word.bit_count() >= later.bit_count()
            covered |= word
