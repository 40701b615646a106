"""Tests for fault-dropping simulation, including equivalence with a
naive one-vector-at-a-time reference implementation.

The stop-at-coverage tests moved with the stop itself: ``U`` selection
is tested in ``test_adi_sampling_index.py``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import collapsed_fault_list
from repro.fsim import coverage_curve, drop_simulate
from repro.sim import PatternSet

from helpers import generated_circuit, naive_drop


class TestDropSimulate:
    def test_matches_naive_reference(self, small_circuit):
        patterns = PatternSet.random(small_circuit.num_inputs, 40, seed=2)
        faults = collapsed_fault_list(small_circuit)
        result = drop_simulate(small_circuit, faults, patterns, chunk_size=7)
        expected, consumed = naive_drop(small_circuit, faults, patterns)
        assert result.first_detection == expected
        assert result.num_simulated == consumed == 40

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 200), chunk=st.integers(1, 70))
    def test_chunking_invariance(self, seed, chunk):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(6, 50, seed=seed + 1)
        result = drop_simulate(circ, faults, patterns, chunk_size=chunk)
        expected, consumed = naive_drop(circ, faults, patterns)
        assert result.first_detection == expected
        assert result.num_simulated == consumed

    def test_empty_fault_list(self, c17_circuit):
        result = drop_simulate(c17_circuit, [], PatternSet.exhaustive(5))
        assert result.coverage == 1.0
        assert result.num_detected == 0

    def test_curve_is_monotone_cumulative(self, small_circuit):
        faults = collapsed_fault_list(small_circuit)
        patterns = PatternSet.random(small_circuit.num_inputs, 30, seed=4)
        curve = coverage_curve(small_circuit, faults, patterns)
        assert len(curve) == 30
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        result = drop_simulate(small_circuit, faults, patterns)
        assert curve[-1] == result.num_detected

    def test_undetected_helper(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5).take(1)
        result = drop_simulate(c17_circuit, faults, patterns)
        undetected = result.undetected(faults)
        assert len(undetected) == len(faults) - result.num_detected

    def test_detections_per_vector_sums(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        result = drop_simulate(c17_circuit, faults, patterns)
        assert sum(result.detections_per_vector()) == result.num_detected
