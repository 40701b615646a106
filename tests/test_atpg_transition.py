"""Ordered two-pattern test generation with fault dropping."""

import pytest

from helpers import generated_circuit

from repro.adi import ORDERS, compute_adi, select_u
from repro.atpg import TestGenConfig, generate_transition_tests
from repro.errors import AtpgError
from repro.faults import FaultStatus, transition_fault_list
from repro.fsim.backend import create_backend
from repro.sim.patterns import PatternPairSet


@pytest.fixture(scope="module")
def lion_run(lion_circuit):
    faults = transition_fault_list(lion_circuit)
    result = generate_transition_tests(
        lion_circuit, faults, TestGenConfig(seed=42)
    )
    return lion_circuit, faults, result


class TestGeneration:
    def test_full_coverage_on_lion(self, lion_run):
        _, faults, result = lion_run
        assert result.num_detected + result.num_undetectable == len(faults)
        assert result.num_tests > 0
        assert result.num_tests == len(result.targeted_faults)

    def test_every_pair_detects_its_target(self, lion_run):
        circ, _, result = lion_run
        engine = create_backend(circ, "bigint")
        engine.load_pairs(result.tests)
        words = engine.transition_detection_words(result.targeted_faults)
        for i, (fault, word) in enumerate(zip(result.targeted_faults, words)):
            assert (word >> i) & 1, fault.describe(circ)

    def test_detected_per_test_sums_to_detected(self, lion_run):
        _, _, result = lion_run
        assert sum(result.detected_per_test) == result.num_detected

    def test_status_covers_all_faults(self, lion_run):
        _, faults, result = lion_run
        assert set(result.status) == set(faults)
        assert all(isinstance(s, FaultStatus)
                   for s in result.status.values())

    def test_duplicates_raise(self, lion_circuit):
        faults = transition_fault_list(lion_circuit)
        with pytest.raises(AtpgError, match="duplicates"):
            generate_transition_tests(lion_circuit, faults + faults[:1])

    def test_deterministic_given_seed(self, lion_circuit):
        faults = transition_fault_list(lion_circuit)
        a = generate_transition_tests(lion_circuit, faults,
                                      TestGenConfig(seed=9))
        b = generate_transition_tests(lion_circuit, faults,
                                      TestGenConfig(seed=9))
        assert a.tests == b.tests
        assert a.detected_per_test == b.detected_per_test

    def test_backend_choice_does_not_change_tests(self, lion_circuit):
        faults = transition_fault_list(lion_circuit)
        results = {
            name: generate_transition_tests(
                lion_circuit, faults, TestGenConfig(seed=3, backend=name)
            )
            for name in ("bigint", "numpy")
        }
        assert results["bigint"].tests == results["numpy"].tests

    def test_generated_circuit_coverage(self):
        # Generated circuits are not irredundant: many transition faults
        # are provably undetectable.  Everything else must be detected.
        circ = generated_circuit(5, num_inputs=7, num_gates=36,
                                 num_outputs=4)
        faults = transition_fault_list(circ)
        result = generate_transition_tests(circ, faults,
                                           TestGenConfig(seed=1))
        assert result.num_aborted == 0
        assert result.num_detected + result.num_undetectable == len(faults)
        assert result.num_detected > 0
        assert result.tests.num_inputs == circ.num_inputs


class TestOrderedRuns:
    def test_order_changes_test_count_bookkeeping(self, lion_circuit):
        faults = transition_fault_list(lion_circuit)
        selection = select_u(lion_circuit, faults, seed=42,
                             model="transition")
        adi = compute_adi(lion_circuit, faults, selection.patterns)
        counts = {}
        for order in ("orig", "dynm", "0dynm"):
            permutation = ORDERS[order](adi)
            ordered = [faults[i] for i in permutation]
            result = generate_transition_tests(
                lion_circuit, ordered, TestGenConfig(seed=42)
            )
            counts[order] = result.num_tests
            assert result.num_detected + result.num_undetectable == len(faults)
        assert len(counts) == 3
