"""Tests for fault-dropping simulation, including equivalence with a
naive one-vector-at-a-time reference implementation."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.fsim import coverage_curve, detects_serial, drop_simulate
from repro.sim import PatternSet

from helpers import generated_circuit


def _naive_drop(circ, faults, patterns, stop_fraction=None):
    """One-vector-at-a-time reference for drop_simulate."""
    remaining = list(faults)
    first = {}
    for p in range(patterns.num_patterns):
        vec = patterns.vector(p)
        hit = [f for f in remaining if detects_serial(circ, vec, f)]
        for f in hit:
            first[f] = p
        remaining = [f for f in remaining if f not in first]
        if (stop_fraction is not None
                and len(first) / len(faults) >= stop_fraction):
            return first, p + 1
    return first, patterns.num_patterns


class TestDropSimulate:
    def test_matches_naive_reference(self, small_circuit):
        patterns = PatternSet.random(small_circuit.num_inputs, 40, seed=2)
        faults = collapsed_fault_list(small_circuit)
        result = drop_simulate(small_circuit, faults, patterns, chunk_size=7)
        expected, consumed = _naive_drop(small_circuit, faults, patterns)
        assert result.first_detection == expected

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 200), chunk=st.integers(1, 70),
           frac=st.sampled_from([None, 0.5, 0.9, 1.0]))
    def test_chunking_invariance_and_stop(self, seed, chunk, frac):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(6, 50, seed=seed + 1)
        result = drop_simulate(circ, faults, patterns, chunk_size=chunk,
                               stop_fraction=frac)
        expected, consumed = _naive_drop(circ, faults, patterns,
                                         stop_fraction=frac)
        assert result.first_detection == expected
        if frac is not None and result.coverage >= frac:
            assert result.num_simulated == consumed

    def test_stop_fraction_validated(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        with pytest.raises(SimulationError):
            drop_simulate(c17_circuit, faults, PatternSet.exhaustive(5),
                          stop_fraction=1.5)

    def test_stop_at_exact_vector(self, c17_circuit):
        # With stop_fraction tiny, the first detecting vector ends the run.
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        result = drop_simulate(c17_circuit, faults, patterns,
                               stop_fraction=0.01)
        assert result.num_simulated >= 1
        assert min(result.first_detection.values()) == result.num_simulated - 1

    def test_stop_target_is_smallest_count_reaching_fraction(self):
        # 100 * 0.55 is just above 55 in floating point, yet 55 of 100
        # detections already reach 55% coverage: the run must end at the
        # vector of the 55th first detection, which here comes before the
        # vector of the 56th.
        circ = generated_circuit(2, num_inputs=8, num_gates=60,
                                 num_outputs=5)
        faults = collapsed_fault_list(circ)[:100]
        patterns = PatternSet.random(circ.num_inputs, 40, seed=2)
        full, __ = _naive_drop(circ, faults, patterns)
        firsts = sorted(full.values())
        assert firsts[54] < firsts[55]

        result = drop_simulate(circ, faults, patterns, chunk_size=8,
                               stop_fraction=0.55)
        expected, consumed = _naive_drop(circ, faults, patterns,
                                         stop_fraction=0.55)
        assert result.num_simulated == consumed == firsts[54] + 1
        assert result.first_detection == expected
        assert result.coverage >= 0.55

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
