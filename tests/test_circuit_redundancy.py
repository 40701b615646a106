"""Tests for redundancy identification, netlist simplification and the
irredundant-circuit flow."""

import pytest

from repro.circuit import (
    Circuit,
    GateType,
    compile_circuit,
    redundant_demo,
    to_netlist,
)
from repro.circuit.redundancy import (
    find_undetectable,
    make_irredundant,
    simplify_constants,
    tie_fault_lines,
)
from repro.faults import collapsed_fault_list
from repro.sim import PatternSet, simulate_outputs

from helpers import generated_circuit


def _functionally_equal(a, b, num_inputs, samples=512):
    patterns = (
        PatternSet.exhaustive(num_inputs)
        if num_inputs <= 9
        else PatternSet.random(num_inputs, samples, seed=77)
    )
    return simulate_outputs(a, patterns) == simulate_outputs(b, patterns)


class TestSimplifyConstants:
    def _compile(self, build):
        c = Circuit()
        build(c)
        return c

    def test_and_with_const0(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k", GateType.CONST0, ())
        c.add_gate("y", GateType.AND, ("a", "k"))
        c.add_output("y")
        simplified = simplify_constants(c)
        compiled = compile_circuit(simplified)
        assert compiled.node_type[compiled.node_of("y")] == GateType.CONST0

    def test_and_identity_input_dropped(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("k", GateType.CONST1, ())
        c.add_gate("y", GateType.AND, ("a", "k", "b"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        y = compiled.node_of("y")
        assert compiled.node_type[y] == GateType.AND
        assert len(compiled.fanin[y]) == 2

    def test_nand_collapses_to_not(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k", GateType.CONST1, ())
        c.add_gate("y", GateType.NAND, ("a", "k"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        assert compiled.node_type[compiled.node_of("y")] == GateType.NOT

    def test_xor_pair_cancellation(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        c.add_gate("y", GateType.XOR, ("a", "a", "b"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        y = compiled.node_of("y")
        assert compiled.node_type[y] == GateType.BUF
        assert compiled.fanin[y] == (compiled.node_of("b"),)

    def test_xor_const_folds_to_not(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("k", GateType.CONST1, ())
        c.add_gate("y", GateType.XOR, ("a", "k"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        assert compiled.node_type[compiled.node_of("y")] == GateType.NOT

    def test_duplicate_or_inputs_deduped(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.OR, ("a", "a"))
        c.add_output("y")
        compiled = compile_circuit(simplify_constants(c))
        assert compiled.node_type[compiled.node_of("y")] == GateType.BUF

    def test_dead_logic_trimmed(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("dead", GateType.NOT, ("a",))
        c.add_gate("y", GateType.BUF, ("a",))
        c.add_output("y")
        simplified = simplify_constants(c)
        assert "dead" not in [g.name for g in simplified.gates]

    def test_function_preserved_on_small_circuits(self, small_circuit):
        netlist = to_netlist(small_circuit)
        simplified = compile_circuit(simplify_constants(netlist))
        assert _functionally_equal(
            small_circuit, simplified, small_circuit.num_inputs
        )

    def test_sequential_rejected(self):
        from repro.errors import CircuitStructureError

        c = Circuit()
        c.add_input("d")
        c.add_dff("q", "d")
        c.add_output("q")
        with pytest.raises(CircuitStructureError):
            simplify_constants(c)


class TestFindUndetectable:
    def test_irredundant_circuit_clean(self, c17_circuit):
        undetectable, aborted = find_undetectable(c17_circuit)
        assert undetectable == []
        assert aborted == []

    def test_redundant_demo_found(self, redundant_circuit):
        undetectable, aborted = find_undetectable(redundant_circuit)
        assert undetectable
        assert aborted == []

    @pytest.mark.parametrize("backtrack_limit", [4, None])
    def test_matches_serial_any_detect_reference(self, backtrack_limit):
        """The random-pattern prefilter keeps exactly the faults no
        pattern detects serially, and PODEM splits them the same way."""
        from repro.atpg.podem import PodemEngine, PodemStatus
        from repro.faults.collapse import collapse_faults
        from repro.fsim.serial import detection_word_serial

        circ = generated_circuit(7, num_inputs=8, num_gates=60,
                                 num_outputs=4, hardness=0.3)
        patterns = PatternSet.random(circ.num_inputs, 32, seed=11)
        engine = PodemEngine(circ)
        expected = {PodemStatus.UNDETECTABLE: [], PodemStatus.ABORTED: []}
        for fault in collapse_faults(circ).representatives:
            if detection_word_serial(circ, patterns, fault):
                continue
            status = engine.run(fault, backtrack_limit=backtrack_limit).status
            expected.get(status, []).append(fault)
        undetectable, aborted = find_undetectable(
            circ, backtrack_limit=backtrack_limit, prefilter_patterns=32)
        assert undetectable == expected[PodemStatus.UNDETECTABLE]
        assert aborted == expected[PodemStatus.ABORTED]
        assert undetectable


class TestTieFaultLine:
    def test_tie_preserves_function_for_undetectable(self, redundant_circuit):
        undetectable, __ = find_undetectable(redundant_circuit)
        for fault in undetectable:
            tied = compile_circuit(
                tie_fault_lines(redundant_circuit, [fault]))
            assert _functionally_equal(
                redundant_circuit, tied, redundant_circuit.num_inputs
            ), fault.describe(redundant_circuit)


class TestMakeIrredundant:
    def test_demo_becomes_wire(self, redundant_circuit):
        result = make_irredundant(redundant_circuit)
        assert not result.aborted
        assert result.removed
        # y = a·b + a·¬b == a: the result should be tiny.
        assert result.circuit.num_gates <= 2
        assert _functionally_equal(redundant_circuit, result.circuit, 2)
        undetectable, __ = find_undetectable(result.circuit)
        assert undetectable == []

    def test_sequential_removal_preserves_function(self):
        circ = generated_circuit(31, num_inputs=7, num_gates=30,
                                 num_outputs=4)
        result = make_irredundant(circ, max_passes=40)
        assert _functionally_equal(circ, result.circuit, 7)
        undetectable, __ = find_undetectable(result.circuit)
        assert undetectable == []

    def test_batch_mode_converges_to_irredundant(self):
        circ = generated_circuit(32, num_inputs=7, num_gates=36,
                                 num_outputs=4, hardness=0.1)
        result = make_irredundant(circ, batch=True, max_passes=10)
        undetectable, aborted = find_undetectable(result.circuit)
        assert undetectable == []
        # Interface is preserved even in batch mode.
        assert result.circuit.num_inputs == circ.num_inputs
        assert result.circuit.num_outputs == circ.num_outputs

    def test_rename(self, redundant_circuit):
        result = make_irredundant(redundant_circuit, name="irdemo")
        assert result.circuit.name == "irdemo"

    def test_already_irredundant_is_noop(self, c17_circuit):
        result = make_irredundant(c17_circuit)
        assert result.removed == []
        assert result.passes == 1
        assert result.circuit.node_type == c17_circuit.node_type
