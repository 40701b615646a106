"""Tests for random fill and the ordered test-generation engine."""

import pytest

from repro.adi import coverage_curve
# Aliased imports: pytest would otherwise try to collect the Test* classes.
from repro.atpg import TestGenConfig as GenConfig
from repro.atpg import (
    PodemStatus,
    SatAtpg,
    fill_constant,
    fill_cube,
    fill_random,
    generate_tests,
)
from repro.errors import AtpgError
from repro.faults import FaultStatus, collapsed_fault_list
from repro.fsim.serial import detection_word_serial
from repro.sim import X
from repro.utils.rng import make_rng


class TestFill:
    def test_fill_random_replaces_only_x(self):
        cube = [0, X, 1, X]
        filled = fill_random(cube, make_rng(1))
        assert filled[0] == 0 and filled[2] == 1
        assert all(v in (0, 1) for v in filled)

    def test_fill_random_deterministic_by_seed(self):
        cube = [X] * 64
        assert fill_random(cube, make_rng(5)) == fill_random(cube, make_rng(5))

    def test_fill_constant(self):
        assert fill_constant([X, 0, X], 1) == [1, 0, 1]
        with pytest.raises(AtpgError):
            fill_constant([X], 2)

    def test_fill_cube_policies(self):
        cube = [X, 1]
        assert fill_cube(cube, "zero", make_rng(1)) == [0, 1]
        assert fill_cube(cube, "one", make_rng(1)) == [1, 1]
        assert fill_cube(cube, "random", make_rng(1))[1] == 1
        with pytest.raises(AtpgError):
            fill_cube(cube, "bogus", make_rng(1))


class TestGenerateTests:
    def test_full_coverage_on_irredundant(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        result = generate_tests(lion_circuit, faults)
        assert result.fault_coverage() == 1.0
        assert result.num_tests <= len(faults)
        assert result.num_undetectable == 0
        assert result.num_aborted == 0

    def test_tests_actually_detect_everything(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        result = generate_tests(lion_circuit, faults)
        curve = coverage_curve(lion_circuit, faults, result.tests)
        assert curve[-1] == len(faults)

    def test_detected_per_test_sums_to_detected(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        result = generate_tests(lion_circuit, faults)
        assert sum(result.detected_per_test) == result.num_detected
        assert len(result.detected_per_test) == result.num_tests
        assert len(result.targeted_faults) == result.num_tests

    def test_undetectable_faults_marked(self, redundant_circuit):
        faults = collapsed_fault_list(redundant_circuit)
        result = generate_tests(
            redundant_circuit, faults,
            GenConfig(backtrack_limit=10_000),
        )
        assert result.num_undetectable > 0
        assert result.fault_coverage() < 1.0
        # Detectable ones are all covered.
        undet = [
            f for f, s in result.status.items()
            if s == FaultStatus.UNDETECTABLE
        ]
        assert result.num_detected == len(faults) - len(undet)

    def test_order_changes_test_count(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        forward = generate_tests(lion_circuit, faults)
        backward = generate_tests(lion_circuit, list(reversed(faults)))
        # Both complete; sizes may differ but coverage must not.
        assert forward.fault_coverage() == backward.fault_coverage() == 1.0

    def test_deterministic_given_seed(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        a = generate_tests(lion_circuit, faults, GenConfig(seed=9))
        b = generate_tests(lion_circuit, faults, GenConfig(seed=9))
        assert a.tests.words == b.tests.words

    def test_fill_seed_changes_tests(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        a = generate_tests(lion_circuit, faults, GenConfig(seed=1))
        b = generate_tests(lion_circuit, faults, GenConfig(seed=2))
        assert a.tests.words != b.tests.words

    def test_duplicate_faults_rejected(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        with pytest.raises(AtpgError):
            generate_tests(lion_circuit, faults + faults[:1])

    def test_test_missing_its_target_is_an_engine_bug(self, lion_circuit):
        # A model step whose test does not detect its target must stop
        # the loop, never leave the target silently undetected.
        from repro.atpg.engine import ordered_tests
        from repro.sim.patterns import PatternSet

        width = lion_circuit.num_inputs

        def all_zero_test(fault, podem, fill):
            return [0] * width  # cannot detect every lion fault

        with pytest.raises(AtpgError, match="engine bug"):
            ordered_tests(
                lion_circuit, collapsed_fault_list(lion_circuit), GenConfig(),
                "fill", all_zero_test,
                lambda vectors: PatternSet.from_vectors(vectors, width),
            )

    def test_zero_fill_policy(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        result = generate_tests(
            lion_circuit, faults, GenConfig(fill="zero")
        )
        assert result.fault_coverage() == 1.0

    def test_runtime_recorded(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        result = generate_tests(lion_circuit, faults)
        assert result.runtime_seconds > 0

    def test_podem_calls_bounded_by_targets(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        result = generate_tests(lion_circuit, faults)
        # One call per generated test plus one per undetectable/aborted.
        assert result.podem_calls == result.num_tests


@pytest.fixture(scope="module")
def generated_result(small_circuit):
    """Collapsed faults of one small circuit and a run over them with a
    backtrack limit high enough that PODEM decides every fault."""
    faults = collapsed_fault_list(small_circuit)
    result = generate_tests(small_circuit, faults,
                            GenConfig(backtrack_limit=10_000))
    return small_circuit, faults, result


class TestStatus:
    """``TestGenResult.status`` holds one verdict per target fault, and
    each verdict holds under an oracle independent of the run."""

    def test_one_verdict_per_target_in_target_order(self, generated_result):
        __, faults, result = generated_result
        assert list(result.status) == faults
        assert result.num_aborted == 0
        assert result.num_detected + result.num_undetectable == len(faults)
        assert result.fault_coverage() == pytest.approx(
            result.num_detected / len(faults))
        assert result.fault_efficiency() == 1.0

    def test_detected_verdicts_match_serial_oracle(self, generated_result):
        circ, __, result = generated_result
        for fault, status in result.status.items():
            word = detection_word_serial(circ, result.tests, fault)
            assert (status == FaultStatus.DETECTED) == (word != 0), \
                fault.describe(circ)

    def test_verdicts_agree_with_sat(self, generated_result):
        """A fault is UNDETECTABLE exactly when the SAT miter has no
        solution, and DETECTED exactly when it has one."""
        circ, __, result = generated_result
        sat = SatAtpg(circ)
        expected = {
            PodemStatus.SUCCESS: FaultStatus.DETECTED,
            PodemStatus.UNDETECTABLE: FaultStatus.UNDETECTABLE,
        }
        for fault, status in result.status.items():
            verdict = sat.run(fault, conflict_limit=None).status
            assert expected[verdict] == status, fault.describe(circ)
