"""Tests for gate truth semantics and algebraic properties."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.gate_types import (
    GateType,
    controlling_value,
    eval_gate,
    is_inverting,
)

MULTI_INPUT = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
               GateType.XOR, GateType.XNOR]


class TestEvalGate:
    def test_two_input_truth_tables(self):
        expected = {
            GateType.AND: [0, 0, 0, 1],
            GateType.NAND: [1, 1, 1, 0],
            GateType.OR: [0, 1, 1, 1],
            GateType.NOR: [1, 0, 0, 0],
            GateType.XOR: [0, 1, 1, 0],
            GateType.XNOR: [1, 0, 0, 1],
        }
        for gtype, table in expected.items():
            got = [
                eval_gate(gtype, [a, b])
                for a, b in itertools.product((0, 1), repeat=2)
            ]
            assert got == table, gtype

    def test_single_input_gates(self):
        assert eval_gate(GateType.BUF, [0]) == 0
        assert eval_gate(GateType.BUF, [1]) == 1
        assert eval_gate(GateType.NOT, [0]) == 1
        assert eval_gate(GateType.NOT, [1]) == 0

    def test_constants(self):
        assert eval_gate(GateType.CONST0, []) == 0
        assert eval_gate(GateType.CONST1, []) == 1

    def test_input_node_has_no_eval(self):
        with pytest.raises(ValueError):
            eval_gate(GateType.INPUT, [])

    def test_empty_multi_input_rejected(self):
        with pytest.raises(ValueError):
            eval_gate(GateType.AND, [])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    def test_inverting_pairs_complement(self, bits):
        assert eval_gate(GateType.NAND, bits) == eval_gate(GateType.AND, bits) ^ 1
        assert eval_gate(GateType.NOR, bits) == eval_gate(GateType.OR, bits) ^ 1
        assert eval_gate(GateType.XNOR, bits) == eval_gate(GateType.XOR, bits) ^ 1

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=6))
    def test_controlling_value_forces_output(self, bits):
        for gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
            ctrl = controlling_value(gtype)
            forced = list(bits)
            forced[0] = ctrl
            assert eval_gate(gtype, forced) == ctrl ^ is_inverting(gtype)


class TestAlgebraicProperties:
    def test_controlling_values(self):
        assert controlling_value(GateType.AND) == 0
        assert controlling_value(GateType.NAND) == 0
        assert controlling_value(GateType.OR) == 1
        assert controlling_value(GateType.NOR) == 1
        assert controlling_value(GateType.XOR) is None
        assert controlling_value(GateType.NOT) is None

    def test_noncontrolling_values(self):
        # With every input at the non-controlling value 1 - c, the
        # output is the complement of the controlled output c ^ inv.
        for gtype in (GateType.AND, GateType.NAND, GateType.OR,
                      GateType.NOR):
            free = 1 - controlling_value(gtype)
            for width in range(1, 5):
                assert eval_gate(gtype, [free] * width) == \
                    free ^ is_inverting(gtype)

    def test_is_inverting(self):
        assert is_inverting(GateType.NAND)
        assert is_inverting(GateType.NOT)
        assert is_inverting(GateType.XNOR)
        assert not is_inverting(GateType.AND)
        assert not is_inverting(GateType.BUF)
