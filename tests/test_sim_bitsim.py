"""Tests for the big-int bit-parallel simulator, including cross-checks
against per-gate scalar evaluation and the numpy backend."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, eval_gate
from repro.errors import SimulationError
from repro.fsim.serial import output_response
from repro.sim import (
    PatternSet,
    simulate,
    simulate_outputs,
    simulate_vector,
)
from repro.sim import npsim
from repro.sim.bitsim import eval_gate_words
from repro.utils.detmatrix import DetectionMatrix

#: The types folded over their inputs, each tried at one to four inputs.
FOLDED = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
          GateType.XOR, GateType.XNOR)


def lone_gate_chain():
    """A chain from input ``a`` in which every gate is alone at its level.

    BUF and NOT, then each folded type at one to four inputs, with side
    inputs from ``b``/``c``/``d``; then ``XOR(., k1)``, ``AND(., k1)``,
    ``OR(., k0)`` and ``XNOR(., ., b)``, so the constants (level 1, beside
    the first chain gate) feed gates far up and one signal drives two
    pins.
    """
    from repro.circuit.flatten import compile_circuit
    from repro.circuit.netlist import Circuit

    circuit = Circuit(name="lone_chain")
    for name in ("a", "b", "c", "d"):
        circuit.add_input(name)
    circuit.add_gate("k0", GateType.CONST0, ())
    circuit.add_gate("k1", GateType.CONST1, ())
    links = [(GateType.BUF, ()), (GateType.NOT, ())]
    links += [(gtype, ("b", "c", "d")[:arity - 1])
              for arity in range(1, 5) for gtype in FOLDED]
    links += [(GateType.XOR, ("k1",)), (GateType.AND, ("k1",)),
              (GateType.OR, ("k0",)), (GateType.XNOR, (None, "b"))]
    prev = "a"
    for index, (gtype, sides) in enumerate(links):
        name = f"g{index}"
        circuit.add_gate(name, gtype, (prev, *(prev if side is None else side
                                               for side in sides)))
        prev = name
    circuit.add_output(prev)
    return compile_circuit(circuit)


class TestEvalGateWords:
    @given(st.sampled_from([GateType.AND, GateType.NAND, GateType.OR,
                            GateType.NOR, GateType.XOR, GateType.XNOR]),
           st.lists(st.integers(0, 0xFF), min_size=1, max_size=4))
    def test_matches_scalar_eval_bitwise(self, gtype, words):
        mask = 0xFF
        result = eval_gate_words(gtype, words, mask)
        for bit in range(8):
            scalar = eval_gate(gtype, [(w >> bit) & 1 for w in words])
            assert (result >> bit) & 1 == scalar

    def test_not_and_buf(self):
        assert eval_gate_words(GateType.NOT, [0b1010], 0b1111) == 0b0101
        assert eval_gate_words(GateType.BUF, [0b1010], 0b1111) == 0b1010

    def test_constants(self):
        assert eval_gate_words(GateType.CONST0, [], 0b111) == 0
        assert eval_gate_words(GateType.CONST1, [], 0b111) == 0b111

    def test_input_type_rejected(self):
        with pytest.raises(SimulationError):
            eval_gate_words(GateType.INPUT, [], 1)


class TestSimulate:
    def test_matches_scalar_reference(self, small_circuit):
        """Word simulation agrees with gate-by-gate scalar evaluation."""
        width = min(small_circuit.num_inputs, 10)
        patterns = PatternSet.random(
            small_circuit.num_inputs, 200, seed=13
        )
        values = simulate(small_circuit, patterns)
        for p in (0, 57, 199):
            vec = patterns.vector(p)
            scalar = [0] * small_circuit.num_nodes
            for i, v in enumerate(vec):
                scalar[i] = v
            for node in small_circuit.gate_nodes():
                scalar[node] = eval_gate(
                    small_circuit.node_type[node],
                    [scalar[s] for s in small_circuit.fanin[node]],
                )
            for node in range(small_circuit.num_nodes):
                assert (values[node] >> p) & 1 == scalar[node]

    def test_c17_known_vector(self, c17_circuit):
        # All-ones: G10=NAND(1,1)=0, G11=0, G16=NAND(1,0)=1, G19=1,
        # G22=NAND(0,1)=1, G23=NAND(1,1)=0.
        assert output_response(c17_circuit, [1, 1, 1, 1, 1]) == [1, 0]

    def test_wrong_input_count_rejected(self, c17_circuit):
        with pytest.raises(SimulationError):
            simulate(c17_circuit, PatternSet.exhaustive(3))

    def test_simulate_vector(self, mux_circuit):
        # sel=0 -> a, sel=1 -> b
        values = simulate_vector(mux_circuit, [0, 1, 0])
        y = mux_circuit.outputs[0]
        assert values[y] == 1
        values = simulate_vector(mux_circuit, [1, 1, 0])
        assert values[y] == 0

    def test_simulate_outputs_shape(self, small_circuit):
        patterns = PatternSet.random(small_circuit.num_inputs, 33, seed=1)
        outs = simulate_outputs(small_circuit, patterns)
        assert len(outs) == small_circuit.num_outputs

    def test_zero_patterns(self, c17_circuit):
        patterns = PatternSet.from_vectors([], num_inputs=5)
        values = simulate(c17_circuit, patterns)
        assert all(v == 0 for v in values)


class TestNumpyBackendAgreement:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), count=st.integers(1, 300))
    def test_backends_agree_on_c17(self, seed, count):
        from repro.circuit import c17

        circ = c17()
        patterns = PatternSet.random(circ.num_inputs, count, seed=seed)
        assert simulate(circ, patterns) == npsim.simulate(circ, patterns)

    def test_backends_agree_on_all_small(self, small_circuit):
        patterns = PatternSet.random(small_circuit.num_inputs, 517, seed=3)
        assert simulate(small_circuit, patterns) == npsim.simulate(
            small_circuit, patterns
        )

    @pytest.mark.parametrize("width", [1, 64, 65])
    def test_lone_gates_evaluated_in_place(self, width):
        circ = lone_gate_chain()
        schedule = npsim.LevelSchedule(circ)
        assert not any(level.groups for level in schedule.levels)
        patterns = PatternSet.random(circ.num_inputs, width, seed=width)
        inputs = DetectionMatrix.from_bigints(patterns.words, width)
        values = npsim.simulate_matrix_levelized(circ, inputs.words,
                                                 schedule=schedule)
        assert (DetectionMatrix.from_rows(values, width).to_bigints()
                == simulate(circ, patterns))

    def test_matrix_input_mismatch(self, c17_circuit):
        import numpy as np

        with pytest.raises(SimulationError):
            npsim.simulate_matrix_levelized(
                c17_circuit, np.zeros((3, 1), dtype=np.uint64))
