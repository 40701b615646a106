"""Serial fault simulation: the slow, obviously-correct oracle.

Re-simulates the whole circuit from scratch for every (pattern, fault)
pair, injecting the fault during evaluation.  Every faster simulator in
the package is property-tested against this one.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import eval_gate
from repro.errors import SimulationError
from repro.faults.model import Fault, check_fault
from repro.sim.patterns import PatternSet


def simulate_with_fault(circ: CompiledCircuit, vector: Sequence[int],
                        fault: Fault) -> List[int]:
    """Per-node 0/1 values of the faulty circuit under one input vector."""
    check_fault(circ, fault)
    if len(vector) != circ.num_inputs:
        raise SimulationError(
            f"vector has {len(vector)} values, expected {circ.num_inputs}"
        )
    values: List[int] = [0] * circ.num_nodes
    for i, v in enumerate(vector):
        values[i] = v
    # Stem fault on a primary input applies before any gate evaluates.
    if fault.is_stem and fault.node < circ.num_inputs:
        values[fault.node] = fault.value
    for node in range(circ.num_inputs, circ.num_nodes):
        srcs = circ.fanin[node]
        ins = [values[s] for s in srcs]
        if fault.is_branch and fault.node == node:
            ins[fault.pin] = fault.value
        value = eval_gate(circ.node_type[node], ins)
        if fault.is_stem and fault.node == node:
            value = fault.value
        values[node] = value
    return values


def output_response(circ: CompiledCircuit, vector: Sequence[int],
                    fault: Fault | None = None) -> List[int]:
    """Primary-output response, fault-free when ``fault`` is None."""
    if fault is None:
        from repro.sim.bitsim import simulate_vector

        values = simulate_vector(circ, vector)
        return [values[out] & 1 for out in circ.outputs]
    values = simulate_with_fault(circ, vector, fault)
    return [values[out] for out in circ.outputs]


def detects_serial(circ: CompiledCircuit, vector: Sequence[int],
                   fault: Fault) -> bool:
    """Reference detection check for one (vector, fault) pair."""
    return output_response(circ, vector, None) != output_response(
        circ, vector, fault
    )


def detection_word_serial(circ: CompiledCircuit, patterns: PatternSet,
                          fault: Fault) -> int:
    """Reference detection word: bit p set iff pattern p detects the fault."""
    word = 0
    for p in range(patterns.num_patterns):
        if detects_serial(circ, patterns.vector(p), fault):
            word |= 1 << p
    return word

