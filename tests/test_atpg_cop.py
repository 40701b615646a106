"""Tests for COP probabilistic testability measures."""

import pytest

from repro.atpg import compute_cop
from repro.circuit import Circuit, GateType, and_chain, compile_circuit, xor_tree
from repro.faults import Fault, STEM, collapsed_fault_list
from repro.fsim import detection_counts
from repro.sim import PatternSet

from helpers import generated_circuit


class TestControllabilityProbabilities:
    def test_pi_is_half(self, c17_circuit):
        cop = compute_cop(c17_circuit)
        for pi in range(c17_circuit.num_inputs):
            assert cop.c1[pi] == 0.5

    def test_and_chain_analytic(self):
        circ = and_chain(5)
        cop = compute_cop(circ)
        assert cop.c1[circ.outputs[0]] == pytest.approx(0.5 ** 6)

    def test_xor_tree_balanced(self):
        circ = xor_tree(6)
        cop = compute_cop(circ)
        assert cop.c1[circ.outputs[0]] == pytest.approx(0.5)

    def test_not_inverts(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("n", GateType.NOT, ("a",))
        c.add_gate("y", GateType.AND, ("n", "a"))
        c.add_output("y")
        circ = compile_circuit(c)
        cop = compute_cop(circ)
        assert cop.c1[circ.node_of("n")] == pytest.approx(0.5)
        # Independence approximation: P = 0.25 (truth: 0, reconvergent).
        assert cop.c1[circ.node_of("y")] == pytest.approx(0.25)

    def test_const_gates(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k", GateType.CONST1, ())
        c.add_gate("y", GateType.AND, ("a", "k"))
        c.add_output("y")
        circ = compile_circuit(c)
        cop = compute_cop(circ)
        assert cop.c1[circ.node_of("k")] == 1.0
        assert cop.c1[circ.node_of("y")] == pytest.approx(0.5)

    def test_exact_on_fanout_free(self):
        """On a tree, the independence approximation is exact: compare to
        measured signal probabilities."""
        circ = and_chain(4)
        cop = compute_cop(circ)
        from repro.sim import simulate

        patterns = PatternSet.exhaustive(circ.num_inputs)
        values = simulate(circ, patterns)
        n = patterns.num_patterns
        for node in range(circ.num_nodes):
            measured = values[node].bit_count() / n
            assert cop.c1[node] == pytest.approx(measured)


class TestObservability:
    def test_po_is_one(self, c17_circuit):
        cop = compute_cop(c17_circuit)
        for out in c17_circuit.outputs:
            assert cop.obs[out] == 1.0

    def test_deep_chain_input_hard_to_observe(self):
        circ = and_chain(8)
        cop = compute_cop(circ)
        i0 = circ.node_of("i0")
        assert cop.obs[i0] == pytest.approx(0.5 ** 8)

    def test_obs_in_unit_interval(self, small_circuit):
        cop = compute_cop(small_circuit)
        for node in range(small_circuit.num_nodes):
            assert 0.0 <= cop.obs[node] <= 1.0
            assert 0.0 <= cop.c1[node] <= 1.0


class TestDetectionPrediction:
    def test_prediction_correlates_with_measurement(self):
        """COP-predicted detection probabilities rank faults roughly as
        measured detection counts do (rank correlation > 0)."""
        circ = generated_circuit(42, num_inputs=10, num_gates=60,
                                 num_outputs=6)
        faults = collapsed_fault_list(circ)
        cop = compute_cop(circ)
        patterns = PatternSet.random(10, 512, seed=3)
        measured = detection_counts(circ, faults, patterns)
        predicted = [
            cop.detection_probability(circ, f) for f in faults
        ]
        observed = [measured[f] for f in faults]
        # Spearman-style check via numpy rank correlation.
        import numpy as np

        pr = np.argsort(np.argsort(predicted))
        ob = np.argsort(np.argsort(observed))
        rho = np.corrcoef(pr, ob)[0, 1]
        assert rho > 0.4

    def test_branch_fault_probability(self, c17_circuit):
        from repro.faults import full_universe

        cop = compute_cop(c17_circuit)
        for fault in full_universe(c17_circuit):
            p = cop.detection_probability(c17_circuit, fault)
            assert 0.0 <= p <= 1.0
