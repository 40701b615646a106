"""Tests for the named-signal netlist builder."""

import pytest

from repro.circuit import Circuit, GateType
from repro.errors import CircuitStructureError


class TestCircuitBuilder:
    def test_add_input_and_gate(self):
        c = Circuit(name="t")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.AND, ("a", "b"))
        c.add_output("y")
        assert c.inputs == ["a", "b"]
        assert c.outputs == ["y"]
        assert c.gates[0].inputs == ("a", "b")

    def test_string_gate_type_accepted(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", "NAND", ("a", "a"))
        assert c.gates[0].gtype == GateType.NAND

    def test_unknown_string_type_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitStructureError):
            c.add_gate("y", "FROB", ("a",))

    def test_duplicate_driver_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitStructureError):
            c.add_input("a")

    def test_gate_cannot_shadow_input(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitStructureError):
            c.add_gate("a", GateType.NOT, ("a",))

    def test_not_gate_arity_enforced(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        with pytest.raises(CircuitStructureError):
            c.add_gate("y", GateType.NOT, ("a", "b"))

    def test_empty_fanin_rejected(self):
        c = Circuit()
        with pytest.raises(CircuitStructureError):
            c.add_gate("y", GateType.AND, ())

    def test_const_gate_takes_no_inputs(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(CircuitStructureError):
            c.add_gate("k", GateType.CONST0, ("a",))
        c.add_gate("k", GateType.CONST0, ())
        assert c.gates[0].inputs == ()

    def test_input_via_add_gate_rejected(self):
        c = Circuit()
        with pytest.raises(CircuitStructureError):
            c.add_gate("x", GateType.INPUT, ())

    def test_duplicate_output_rejected(self):
        c = Circuit()
        c.add_input("a")
        c.add_output("a")
        with pytest.raises(CircuitStructureError):
            c.add_output("a")

    def test_dff_makes_sequential(self):
        c = Circuit()
        c.add_input("d")
        assert not c.is_sequential
        c.add_dff("q", "d")
        assert c.is_sequential

    def test_driver_kind(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", GateType.NOT, ("a",))
        c.add_dff("q", "g")
        assert c.driver_kind("a") == "input"
        assert c.driver_kind("g") == "gate"
        assert c.driver_kind("q") == "dff"
        assert c.driver_kind("nope") is None

    def test_copy_is_independent(self):
        c = Circuit(name="orig")
        c.add_input("a")
        c.add_gate("g", GateType.NOT, ("a",))
        c.add_output("g")
        dup = c.copy(name="dup")
        dup.add_input("b")
        assert len(c.inputs) == 1
        assert dup.name == "dup"
        assert c.name == "orig"

    def test_stats_line(self):
        c = Circuit(name="s")
        c.add_input("a")
        c.add_gate("g", GateType.NOT, ("a",))
        c.add_output("g")
        line = c.stats_line()
        assert "1 PIs" in line and "1 gates" in line
