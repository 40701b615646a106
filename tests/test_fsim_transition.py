"""Cross-backend equivalence tests for two-pattern transition simulation.

Contract: every registered backend returns *bit-identical* transition
detection words for the same (circuit, transition faults, pair block)
triple, including word-boundary pattern counts (the numpy engine packs
64 pairs per ``uint64`` word) and degenerate gate arities (1-input
AND/OR and wide gates ride the numpy engine's non-vectorized path).
The semantic oracle is the classic reduction evaluated with the *serial*
single-fault simulator, independent of both production engines.
"""

import pytest

from helpers import engine_words, generated_circuit

from repro.circuit import Circuit, compile_circuit
from repro.errors import SimulationError
from repro.faults import TransitionFault, transition_universe
from repro.faults.model import STEM
from repro.fsim.backend import create_backend
from repro.fsim.serial import detection_word_serial
from repro.fsim.transition import initialization_word, launch_line_word
from repro.sim.bitsim import simulate
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.bitvec import full_mask

ALL_BACKENDS = ("bigint", "numpy", "auto", "parallel")

#: Pair counts straddling the numpy engine's 64-bit word boundary.
WORD_BOUNDARY_WIDTHS = (1, 63, 64, 65, 130)


def reduction_oracle(circ, pairs, fault):
    """Init-and-stuck-detect reduction via the serial simulator."""
    good_launch = simulate(circ, pairs.launch)
    mask = full_mask(pairs.num_patterns)
    init = initialization_word(circ, good_launch, fault, mask)
    stuck = detection_word_serial(circ, pairs.capture, fault.as_stuck_at())
    return init & stuck


def degenerate_circuit():
    """Hand-built netlist whose odd arities the numpy schedule evaluates
    in place, one gate at a time."""
    circuit = Circuit(name="degenerate")
    for name in ("a", "b", "c", "d", "e"):
        circuit.add_input(name)
    circuit.add_gate("wide_and", "AND", ["a", "b", "c"])
    circuit.add_gate("one_and", "AND", ["d"])
    circuit.add_gate("one_or", "OR", ["e"])
    circuit.add_gate("wide_nor", "NOR", ["wide_and", "one_and", "one_or"])
    circuit.add_gate("wide_xor", "XOR", ["a", "d", "e"])
    circuit.add_gate("inv", "NOT", ["wide_nor"])
    circuit.add_gate("mix", "NAND", ["inv", "wide_xor"])
    circuit.add_output("mix")
    circuit.add_output("wide_and")
    return compile_circuit(circuit)


class TestSemantics:
    def test_matches_reduction_oracle_small(self, small_circuit):
        pairs = PatternPairSet.random(small_circuit.num_inputs, 48, seed=9)
        faults = transition_universe(small_circuit)
        engine = create_backend(small_circuit, "bigint")
        engine.load_pairs(pairs)
        words = engine.transition_detection_words(faults)
        for fault, word in zip(faults, words):
            assert word == reduction_oracle(small_circuit, pairs, fault), \
                fault.describe(small_circuit)

    def test_initialization_word_reads_driver(self, c17_circuit):
        pairs = PatternPairSet.random(c17_circuit.num_inputs, 16, seed=1)
        good = simulate(c17_circuit, pairs.launch)
        mask = full_mask(16)
        branch = next(
            f for f in transition_universe(c17_circuit) if f.is_branch
        )
        driver = c17_circuit.fanin[branch.node][branch.pin]
        assert launch_line_word(c17_circuit, good, branch) == good[driver]
        init = initialization_word(c17_circuit, good, branch, mask)
        expected = (good[driver] ^ mask) if branch.rise else good[driver] & mask
        assert init == expected


class TestCrossBackend:
    @pytest.mark.parametrize("width", WORD_BOUNDARY_WIDTHS)
    def test_bit_identical_across_backends(self, width):
        circ = generated_circuit(77, num_inputs=9, num_gates=60,
                                 num_outputs=6)
        faults = transition_universe(circ)
        pairs = PatternPairSet.random(circ.num_inputs, width, seed=width)
        reference = None
        for name in ALL_BACKENDS:
            words = engine_words(circ, faults, pairs, name)
            if reference is None:
                reference = words
            else:
                assert words == reference, name
        assert any(reference)

    def test_bit_identical_on_degenerate_arities(self):
        circ = degenerate_circuit()
        faults = transition_universe(circ)
        for width in (5, 64, 70):
            pairs = PatternPairSet.random(circ.num_inputs, width, seed=3)
            expected = [reduction_oracle(circ, pairs, f) for f in faults]
            for name in ALL_BACKENDS:
                assert engine_words(circ, faults, pairs, name) == expected, \
                    name

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_matrix_equals_words(self, c17_circuit, name):
        faults = transition_universe(c17_circuit)
        pairs = PatternPairSet.random(c17_circuit.num_inputs, 40, seed=2)
        engine = create_backend(c17_circuit, name)
        engine.load_pairs(pairs)
        assert engine.transition_detection_matrix(faults).to_bigints() == \
            engine.transition_detection_words(faults)


class TestLifecycle:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_query_before_load_pairs_raises(self, c17_circuit, name):
        engine = create_backend(c17_circuit, name)
        fault = TransitionFault(0, STEM, 1)
        with pytest.raises(SimulationError):
            engine.transition_detection_words([fault])

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_plain_load_invalidates_pairs(self, c17_circuit, name):
        engine = create_backend(c17_circuit, name)
        pairs = PatternPairSet.random(c17_circuit.num_inputs, 8, seed=0)
        engine.load_pairs(pairs)
        engine.load(pairs.capture)
        with pytest.raises(SimulationError, match="load_pairs"):
            engine.transition_detection_words([TransitionFault(0, STEM, 1)])

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_reload_pairs_switches_block(self, c17_circuit, name):
        faults = transition_universe(c17_circuit)
        first = PatternPairSet.random(c17_circuit.num_inputs, 24, seed=5)
        second = PatternPairSet.random(c17_circuit.num_inputs, 24, seed=6)
        engine = create_backend(c17_circuit, name)
        engine.load_pairs(first)
        engine.load_pairs(second)
        assert engine.transition_detection_words(faults) == \
            engine_words(c17_circuit, faults, second, "bigint")

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_capture_half_answers_stuck_at_queries(self, c17_circuit, name):
        faults = transition_universe(c17_circuit)
        pairs = PatternPairSet.random(c17_circuit.num_inputs, 24, seed=5)
        engine = create_backend(c17_circuit, name)
        engine.load_pairs(pairs)
        assert engine.num_patterns == pairs.num_patterns
        stuck = [f.as_stuck_at() for f in faults]
        other = create_backend(c17_circuit, "bigint")
        other.load(pairs.capture)
        assert engine.detection_words(stuck) == other.detection_words(stuck)

    def test_empty_pair_block(self, c17_circuit):
        faults = transition_universe(c17_circuit)
        empty = PatternPairSet.random(c17_circuit.num_inputs, 24, seed=0).take(0)
        for name in ALL_BACKENDS:
            engine = create_backend(c17_circuit, name)
            engine.load_pairs(empty)
            assert engine.transition_detection_words(faults) == \
                [0] * len(faults)

    def test_wrong_input_count_raises(self, c17_circuit):
        engine = create_backend(c17_circuit, "bigint")
        with pytest.raises(SimulationError, match="inputs"):
            engine.load_pairs(PatternPairSet.random(3, 4, seed=0))
