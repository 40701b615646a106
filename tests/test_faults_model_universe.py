"""Tests for the fault model and universe enumeration."""

import pytest

from repro.circuit import Circuit, GateType, compile_circuit
from repro.errors import FaultModelError
from repro.faults import STEM, Fault, check_fault, full_universe
from repro.faults.universe import fault_lines, input_line, line_branches


class TestFaultModel:
    def test_stem_fault(self):
        f = Fault(3, STEM, 1)
        assert f.is_stem and not f.is_branch
        assert f.site() == (3, -1)

    def test_branch_fault(self):
        f = Fault(3, 0, 0)
        assert f.is_branch

    def test_bad_value_rejected(self):
        with pytest.raises(FaultModelError):
            Fault(0, STEM, 2)

    def test_bad_pin_rejected(self):
        with pytest.raises(FaultModelError):
            Fault(0, -2, 0)

    def test_ordering_is_topological(self):
        faults = [Fault(2, STEM, 1), Fault(1, 0, 0), Fault(1, STEM, 0)]
        assert sorted(faults) == [
            Fault(1, STEM, 0), Fault(1, 0, 0), Fault(2, STEM, 1)
        ]

    def test_describe(self, c17_circuit):
        g16 = c17_circuit.node_of("G16")
        assert Fault(g16, STEM, 0).describe(c17_circuit) == "G16 s-a-0"
        text = Fault(g16, 1, 1).describe(c17_circuit)
        assert text == "G16.in1(G11) s-a-1"

    def test_check_fault_bounds(self, c17_circuit):
        with pytest.raises(FaultModelError):
            check_fault(c17_circuit, Fault(999, STEM, 0))
        with pytest.raises(FaultModelError):
            check_fault(c17_circuit, Fault(c17_circuit.node_of("G10"), 5, 0))


class TestUniverse:
    def test_c17_universe_size(self, c17_circuit):
        # 11 stems + branch pins fed by the three fanout stems
        # (G3, G11, G16 feed two pins each -> 6 branch lines).
        faults = full_universe(c17_circuit)
        assert len(faults) == 2 * (11 + 6)
        assert len(faults) == 2 * len(fault_lines(c17_circuit))

    def test_universe_sorted_unique(self, small_circuit):
        faults = full_universe(small_circuit)
        assert faults == sorted(faults)
        assert len(set(faults)) == len(faults)

    def test_lines_are_the_universe_sites(self, small_circuit):
        sites = {fault.site() for fault in full_universe(small_circuit)}
        assert fault_lines(small_circuit) == sorted(sites)

    def test_input_line_is_a_fault_line(self, small_circuit):
        """Every gate pin is fed by one universe line: its own branch
        when the driver's line branches, else the driver's stem."""
        lines = set(fault_lines(small_circuit))
        for gate in small_circuit.gate_nodes():
            for pin, src in enumerate(small_circuit.fanin[gate]):
                line = input_line(small_circuit, gate, pin)
                assert line in lines
                assert line == ((gate, pin)
                                if line_branches(small_circuit, src)
                                else (src, STEM))

    def test_fanout_stems(self):
        # a feeds p and q; every other line has a single destination.
        c = Circuit(name="diamond")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("p", GateType.AND, ("a", "b"))
        c.add_gate("q", GateType.NOT, ("a",))
        c.add_gate("y", GateType.OR, ("p", "q"))
        c.add_output("y")
        circ = compile_circuit(c)
        assert [circ.names[n] for n in range(circ.num_nodes)
                if line_branches(circ, n)] == ["a"]
        p, q = circ.node_of("p"), circ.node_of("q")
        assert [line for line in fault_lines(circ) if line[1] != STEM] \
            == sorted([(p, 0), (q, 0)])

    def test_branch_faults_only_on_branching_lines(self, small_circuit):
        for fault in full_universe(small_circuit):
            if fault.is_branch:
                src = small_circuit.fanin[fault.node][fault.pin]
                assert line_branches(small_circuit, src)

    def test_unused_input_has_no_faults(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("unused")
        c.add_gate("y", GateType.NOT, ("a",))
        c.add_output("y")
        circ = compile_circuit(c)
        universe = full_universe(circ)
        unused = circ.node_of("unused")
        assert not any(f.node == unused for f in universe)

    def test_po_feeding_logic_creates_branches(self):
        # When a PO also feeds a gate, the pin needs its own branch fault:
        # the stem is observable at the PO, the branch is not.
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("m", GateType.AND, ("a", "b"))
        c.add_gate("y", GateType.NOT, ("m",))
        c.add_output("m")
        c.add_output("y")
        circ = compile_circuit(c)
        universe = full_universe(circ)
        y = circ.node_of("y")
        assert Fault(y, 0, 0) in universe
        assert Fault(y, 0, 1) in universe

    def test_single_fanout_non_po_has_no_branch(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("m", GateType.NOT, ("a",))
        c.add_gate("y", GateType.NOT, ("m",))
        c.add_output("y")
        circ = compile_circuit(c)
        y = circ.node_of("y")
        assert not any(
            f.is_branch and f.node == y for f in full_universe(circ)
        )
