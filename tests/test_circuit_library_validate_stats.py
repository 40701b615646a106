"""Tests for built-in circuits and validation."""

import pytest

from repro.circuit import (
    Circuit,
    GateType,
    and_chain,
    builtin_names,
    compile_circuit,
    get_builtin,
    lion_like,
    ripple_adder,
    validate_circuit,
    xor_tree,
)
from repro.errors import ExperimentError
from repro.fsim.serial import output_response
from repro.sim import PatternSet


class TestLionLike:
    def test_interface(self, lion_circuit):
        assert lion_circuit.num_inputs == 4
        assert lion_circuit.num_outputs == 3

    def test_has_40_collapsed_faults(self, lion_circuit):
        from repro.faults import collapse_faults

        assert len(collapse_faults(lion_circuit).representatives) == 40

    def test_all_faults_detectable_exhaustively(self, lion_circuit):
        from repro.faults import collapse_faults
        from repro.fsim import detection_words

        faults = list(collapse_faults(lion_circuit).representatives)
        words = detection_words(
            lion_circuit, faults, PatternSet.exhaustive(4)
        )
        assert all(words), "lion_like must be irredundant"


class TestParametricFamilies:
    def test_and_chain_function(self):
        circ = and_chain(3)
        assert output_response(circ, [1, 1, 1, 1]) == [1]
        assert output_response(circ, [1, 1, 0, 1]) == [0]

    def test_and_chain_bad_length(self):
        with pytest.raises(ExperimentError):
            and_chain(0)

    def test_xor_tree_is_parity(self):
        circ = xor_tree(6)
        for vec in ([1, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [1] * 6):
            assert output_response(circ, list(vec)) == [sum(vec) % 2]

    def test_xor_tree_odd_width(self):
        circ = xor_tree(5)
        assert output_response(circ, [1, 1, 1, 1, 1]) == [1]

    def test_ripple_adder_adds(self):
        width = 4
        circ = ripple_adder(width)
        for a, b, cin in [(3, 5, 0), (15, 1, 1), (9, 9, 0), (0, 0, 1)]:
            vec = (
                [(a >> k) & 1 for k in range(width)]
                + [(b >> k) & 1 for k in range(width)]
                + [cin]
            )
            out = output_response(circ, vec)
            total = sum(out[k] << k for k in range(width)) + (out[width] << width)
            assert total == a + b + cin

    def test_adder_bad_width(self):
        with pytest.raises(ExperimentError):
            ripple_adder(0)


class TestBuiltinRegistry:
    def test_names_sorted(self):
        names = builtin_names()
        assert names == sorted(names)
        assert "lion_like" in names

    def test_get_builtin(self):
        assert get_builtin("c17").name == "c17"

    def test_unknown_builtin(self):
        with pytest.raises(ExperimentError):
            get_builtin("s38417")


class TestValidation:
    def test_clean_circuit_passes_strict(self, c17_circuit):
        report = validate_circuit(c17_circuit, strict=True)
        assert report.ok
        assert not report.warnings

    def test_dead_logic_warns(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("dead", GateType.NOT, ("a",))
        c.add_gate("y", GateType.BUF, ("a",))
        c.add_output("y")
        report = validate_circuit(compile_circuit(c))
        assert report.ok
        assert any("do not reach" in w for w in report.warnings)

    def test_dead_logic_fails_strict(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("dead", GateType.NOT, ("a",))
        c.add_gate("y", GateType.BUF, ("a",))
        c.add_output("y")
        report = validate_circuit(compile_circuit(c), strict=True)
        assert not report.ok

    def test_unused_input_warns(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("unused")
        c.add_gate("y", GateType.NOT, ("a",))
        c.add_output("y")
        report = validate_circuit(compile_circuit(c))
        assert any("unused" in w for w in report.warnings)

    def test_degenerate_xor_warns(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("y", GateType.XOR, ("a", "a"))
        c.add_output("y")
        report = validate_circuit(compile_circuit(c))
        assert any("XOR" in w for w in report.warnings)

    def test_raise_if_failed(self):
        from repro.errors import CircuitStructureError

        c = Circuit()
        c.add_input("a")
        c.add_gate("dead", GateType.NOT, ("a",))
        c.add_gate("y", GateType.BUF, ("a",))
        c.add_output("y")
        report = validate_circuit(compile_circuit(c), strict=True)
        with pytest.raises(CircuitStructureError):
            report.raise_if_failed()
