"""Tests for SCOAP testability measures."""

from repro.atpg import compute_scoap
from repro.circuit import Circuit, GateType, and_chain, compile_circuit


class TestControllability:
    def test_pi_baseline(self, c17_circuit):
        scoap = compute_scoap(c17_circuit)
        for pi in range(c17_circuit.num_inputs):
            assert scoap.cc0[pi] == 1
            assert scoap.cc1[pi] == 1

    def test_and_gate(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ("a", "b"))
        c.add_output("y")
        scoap = compute_scoap(compile_circuit(c))
        y = 2
        assert scoap.cc1[y] == 1 + 1 + 1  # both inputs to 1
        assert scoap.cc0[y] == 1 + 1      # one input to 0

    def test_not_swaps(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.NOT, ("a",))
        c.add_output("y")
        scoap = compute_scoap(compile_circuit(c))
        assert scoap.cc0[1] == 2
        assert scoap.cc1[1] == 2

    def test_xor_two_input_formula(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.XOR, ("a", "b"))
        c.add_output("y")
        scoap = compute_scoap(compile_circuit(c))
        # CC1 = 1 + min(CC0a+CC1b, CC1a+CC0b) = 1 + 2 = 3; same for CC0.
        assert scoap.cc1[2] == 3
        assert scoap.cc0[2] == 3

    def test_and_chain_cc1_grows_linearly(self):
        circ = and_chain(6)
        scoap = compute_scoap(circ)
        final = circ.outputs[0]
        # Setting the last AND to 1 requires all 7 inputs at 1.
        assert scoap.cc1[final] == 7 + 6  # 7 input costs + 6 gate levels

    def test_const_gates(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k1", GateType.CONST1, ())
        c.add_gate("y", GateType.AND, ("a", "k1"))
        c.add_output("y")
        scoap = compute_scoap(compile_circuit(c))
        k1 = compile_circuit(c).node_of("k1")
        assert scoap.cc1[k1] == 1
        assert scoap.cc0[k1] >= 10**9  # unreachable


class TestObservability:
    def test_po_is_zero(self, c17_circuit):
        scoap = compute_scoap(c17_circuit)
        for out in c17_circuit.outputs:
            assert scoap.co[out] == 0

    def test_and_side_input_cost(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ("a", "b"))
        c.add_output("y")
        circ = compile_circuit(c)
        scoap = compute_scoap(circ)
        # Observing `a` requires y observable (0) + b held at 1 (1) + 1.
        assert scoap.co[circ.node_of("a")] == 2

    def test_observability_monotone_towards_inputs(self, small_circuit):
        """A node can never be easier to observe than its easiest consumer
        path requires."""
        scoap = compute_scoap(small_circuit)
        for node in range(small_circuit.num_nodes):
            if small_circuit.is_output[node]:
                assert scoap.co[node] == 0
            elif small_circuit.fanout[node]:
                assert scoap.co[node] > 0

    def test_and_chain_telescoping_identity(self):
        # Classic SCOAP identity: in a 2-input AND chain every primary
        # input has the same observability (path cost and side-input
        # holding cost trade off exactly), while gates get easier to
        # observe the closer they sit to the output.
        circ = and_chain(6)
        scoap = compute_scoap(circ)
        input_costs = {
            scoap.co[circ.node_of(f"i{k}")] for k in range(7)
        }
        assert len(input_costs) == 1
        assert scoap.co[circ.node_of("a0")] > scoap.co[circ.node_of("a4")]

    def test_pin_co_shape(self, c17_circuit):
        scoap = compute_scoap(c17_circuit)
        for node in c17_circuit.gate_nodes():
            assert len(scoap.pin_co[node]) == len(c17_circuit.fanin[node])
