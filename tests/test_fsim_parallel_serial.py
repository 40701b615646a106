"""Tests for fault simulators: PPSFP against the serial oracle."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import Fault, STEM, collapsed_fault_list, full_universe
from repro.fsim import (
    ParallelFaultSimulator,
    detection_word,
    detection_words,
    detects,
    detects_serial,
    output_response,
    simulate_with_fault,
)
from repro.fsim.serial import detection_word_serial
from repro.sim import PatternSet, simulate

from helpers import generated_circuit


class TestSerialOracle:
    def test_fault_free_response(self, mux_circuit):
        assert output_response(mux_circuit, [0, 1, 0]) == [1]

    def test_stem_fault_on_po(self, mux_circuit):
        y = mux_circuit.outputs[0]
        fault = Fault(y, STEM, 0)
        assert output_response(mux_circuit, [0, 1, 0], fault) == [0]
        assert detects_serial(mux_circuit, [0, 1, 0], fault)

    def test_pi_stem_fault(self, mux_circuit):
        sel = mux_circuit.node_of("sel")
        fault = Fault(sel, STEM, 1)  # mux always selects b
        assert detects_serial(mux_circuit, [0, 1, 0], fault)
        assert not detects_serial(mux_circuit, [0, 1, 1], fault)

    def test_branch_fault_injection(self, c17_circuit):
        g22 = c17_circuit.node_of("G22")
        fault = Fault(g22, 1, 1)  # G22's G16 pin stuck-at-1
        values = simulate_with_fault(c17_circuit, [1, 1, 1, 1, 1], fault)
        # G16 is 1 under this vector, so the fault is not excited.
        assert values[g22] == 1

    def test_vector_width_checked(self, c17_circuit):
        with pytest.raises(SimulationError):
            simulate_with_fault(c17_circuit, [0, 1], Fault(0, STEM, 0))


class TestParallelAgainstSerial:
    def test_all_small_circuits_exhaustive(self, small_circuit):
        if small_circuit.num_inputs > 8:
            return
        patterns = PatternSet.exhaustive(small_circuit.num_inputs)
        faults = full_universe(small_circuit)
        fast = detection_words(small_circuit, faults, patterns)
        slow = [
            detection_word_serial(small_circuit, patterns, f) for f in faults
        ]
        assert fast == slow

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 500), pat_seed=st.integers(0, 100))
    def test_generated_circuits_random_patterns(self, seed, pat_seed):
        circ = generated_circuit(seed, num_inputs=7, num_gates=28,
                                 num_outputs=4)
        patterns = PatternSet.random(7, 48, seed=pat_seed)
        faults = collapsed_fault_list(circ)
        fast = detection_words(circ, faults, patterns)
        slow = [detection_word_serial(circ, patterns, f) for f in faults]
        assert fast == slow

    def test_unexcited_fault_is_cheap_and_zero(self, c17_circuit):
        # G10 is 0 only when G1=G3=1; stuck-at-0 is unexcited otherwise.
        g10 = c17_circuit.node_of("G10")
        patterns = PatternSet.from_vectors([[1, 0, 1, 0, 0]])
        good = simulate(c17_circuit, patterns)
        assert good[g10] == 0
        assert detection_word(c17_circuit, good, Fault(g10, STEM, 0), 1) == 0

    def test_detects_single_vector(self, mux_circuit):
        sel = mux_circuit.node_of("sel")
        assert detects(mux_circuit, [0, 1, 0], Fault(sel, STEM, 1))


class TestParallelSimulatorClass:
    def test_load_then_query(self, c17_circuit):
        sim = ParallelFaultSimulator(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        sim.load(patterns)
        faults = collapsed_fault_list(c17_circuit)
        assert all(sim.detection_words(faults))  # c17 is irredundant

    def test_query_before_load_rejected(self, c17_circuit):
        sim = ParallelFaultSimulator(c17_circuit)
        with pytest.raises(SimulationError):
            sim.detection_words([Fault(0, STEM, 0)])
