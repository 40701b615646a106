"""Bit-parallel true-value simulation on Python big-ints.

One pass evaluates all N patterns at once: each node's value across the
pattern block is a single arbitrary-precision integer, and a gate is one
or a few bitwise operations regardless of N.  For the word widths used in
this package (tens to a few thousand patterns) this outperforms a numpy
``uint64`` backend because there is exactly one Python-level operation per
gate (see ``benchmarks/bench_ablation_backends.py``).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.errors import SimulationError
from repro.sim.patterns import PatternSet
from repro.utils.bitvec import full_mask

_AND = GateType.AND
_NAND = GateType.NAND
_OR = GateType.OR
_NOR = GateType.NOR
_XOR = GateType.XOR
_XNOR = GateType.XNOR
_NOT = GateType.NOT
_BUF = GateType.BUF
_CONST0 = GateType.CONST0
_CONST1 = GateType.CONST1


def eval_gate_words(gtype: GateType, words: Sequence[int], mask: int) -> int:
    """Evaluate one gate over word-valued inputs.

    ``mask`` is the all-ones word for the pattern block; inverting gates
    XOR with it so padding bits above the block never go hot.
    """
    if gtype == _AND or gtype == _NAND:
        acc = mask
        for w in words:
            acc &= w
        return acc if gtype == _AND else acc ^ mask
    if gtype == _OR or gtype == _NOR:
        acc = 0
        for w in words:
            acc |= w
        return acc if gtype == _OR else acc ^ mask
    if gtype == _XOR or gtype == _XNOR:
        acc = 0
        for w in words:
            acc ^= w
        return acc if gtype == _XOR else acc ^ mask
    if gtype == _BUF:
        return words[0]
    if gtype == _NOT:
        return words[0] ^ mask
    if gtype == _CONST0:
        return 0
    if gtype == _CONST1:
        return mask
    raise SimulationError(f"cannot evaluate node type {gtype!r}")


def simulate_words(circ: CompiledCircuit, input_words: Sequence[int],
                   num_patterns: int) -> List[int]:
    """Simulate and return the value word of *every* node.

    ``input_words[i]`` carries primary input ``i`` over the pattern block.
    The returned list is indexed by node id; fault simulation uses it as
    the fault-free reference.
    """
    if len(input_words) != circ.num_inputs:
        raise SimulationError(
            f"{circ.name}: got {len(input_words)} input words, "
            f"expected {circ.num_inputs}"
        )
    mask = full_mask(num_patterns)
    values: List[int] = [0] * circ.num_nodes
    for i, word in enumerate(input_words):
        if word < 0 or word & ~mask:
            raise SimulationError(
                f"input word {i} has bits outside the {num_patterns}-pattern block"
            )
        values[i] = word

    node_type = circ.node_type
    fanin = circ.fanin
    for node in range(circ.num_inputs, circ.num_nodes):
        gtype = node_type[node]
        srcs = fanin[node]
        # Inline the two-input common case; it dominates every netlist.
        if len(srcs) == 2:
            a = values[srcs[0]]
            b = values[srcs[1]]
            if gtype == _NAND:
                values[node] = (a & b) ^ mask
            elif gtype == _AND:
                values[node] = a & b
            elif gtype == _NOR:
                values[node] = (a | b) ^ mask
            elif gtype == _OR:
                values[node] = a | b
            elif gtype == _XOR:
                values[node] = a ^ b
            elif gtype == _XNOR:
                values[node] = a ^ b ^ mask
            else:
                values[node] = eval_gate_words(gtype, (a, b), mask)
        else:
            values[node] = eval_gate_words(
                gtype, [values[s] for s in srcs], mask
            )
    return values


def simulate(circ: CompiledCircuit, patterns: PatternSet) -> List[int]:
    """Simulate a :class:`PatternSet`; returns all node value words."""
    if patterns.num_inputs != circ.num_inputs:
        raise SimulationError(
            f"{circ.name}: pattern set has {patterns.num_inputs} inputs, "
            f"circuit has {circ.num_inputs}"
        )
    return simulate_words(circ, patterns.words, patterns.num_patterns)


def simulate_outputs(circ: CompiledCircuit, patterns: PatternSet) -> List[int]:
    """Simulate and return only the primary-output value words."""
    values = simulate(circ, patterns)
    return [values[out] for out in circ.outputs]


def simulate_vector(circ: CompiledCircuit, vector: Sequence[int]) -> List[int]:
    """Single-vector convenience wrapper: returns per-node scalar 0/1."""
    patterns = PatternSet.from_vectors([list(vector)], circ.num_inputs)
    return simulate(circ, patterns)

