"""Tests for structural graph queries."""

from repro.circuit import (
    Circuit,
    GateType,
    compile_circuit,
    output_cone,
    reaches_output,
    transitive_fanin,
)
from repro.circuit.graph import output_reach_masks


def _diamond():
    """a feeds two paths that reconverge: the classic fanout test graph."""
    c = Circuit(name="diamond")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("p", GateType.AND, ("a", "b"))
    c.add_gate("q", GateType.NOT, ("a",))
    c.add_gate("y", GateType.OR, ("p", "q"))
    c.add_output("y")
    return compile_circuit(c)


class TestOutputCone:
    def test_cone_of_stem(self):
        circ = _diamond()
        a = circ.node_of("a")
        cone = output_cone(circ, a)
        names = {circ.names[n] for n in cone}
        assert names == {"a", "p", "q", "y"}

    def test_cone_sorted_topologically(self, small_circuit):
        for node in range(small_circuit.num_nodes):
            cone = output_cone(small_circuit, node)
            assert cone == sorted(cone)

    def test_cone_of_output_is_itself(self):
        circ = _diamond()
        y = circ.node_of("y")
        assert output_cone(circ, y) == [y]


class TestTransitiveFanin:
    def test_fanin_of_output(self):
        circ = _diamond()
        y = circ.node_of("y")
        names = {circ.names[n] for n in transitive_fanin(circ, [y])}
        assert names == {"a", "b", "p", "q", "y"}

    def test_fanin_of_input_is_itself(self):
        circ = _diamond()
        a = circ.node_of("a")
        assert transitive_fanin(circ, [a]) == [a]


class TestReachability:
    def test_all_reach_in_validated_circuit(self, small_circuit):
        assert all(reaches_output(small_circuit))

    def test_dead_node_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("dead", GateType.NOT, ("a",))
        c.add_gate("y", GateType.BUF, ("a",))
        c.add_output("y")
        circ = compile_circuit(c)
        reach = reaches_output(circ)
        assert not reach[circ.node_of("dead")]
        assert reach[circ.node_of("y")]

    def test_observable_outputs(self):
        # Bit k of a node's mask: primary output k is in its forward cone.
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("p", GateType.AND, ("a", "b"))
        c.add_gate("q", GateType.NOT, ("a",))
        c.add_gate("y", GateType.OR, ("p", "q"))
        c.add_gate("z", GateType.BUF, ("b",))
        c.add_gate("dead", GateType.NOT, ("b",))
        c.add_output("y")
        c.add_output("z")
        circ = compile_circuit(c)
        masks = output_reach_masks(circ)
        expected = {"a": 0b01, "b": 0b11, "p": 0b01, "q": 0b01,
                    "y": 0b01, "z": 0b10, "dead": 0}
        assert {name: masks[circ.node_of(name)]
                for name in expected} == expected
