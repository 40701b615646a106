"""COP: controllability/observability probabilities.

The probabilistic cousin of SCOAP: under uniform random primary inputs,
``c1[n]`` estimates ``P(node n = 1)`` and ``obs[n]`` estimates the
probability that a value change at ``n`` propagates to some primary
output.  Both use the classical independence approximation (exact on
fanout-free circuits, optimistic under reconvergence).

The product ``P(activate) * P(observe)`` predicts per-fault random-
pattern detection probability — the quantity that decides how many
random vectors the paper's ``U`` needs, and which faults end up with
``ADI = 0``.  The suite generator's ``hardness`` knob is validated
against this prediction in ``benchmarks/bench_ablation_cop.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.errors import SimulationError
from repro.faults.model import Fault


@dataclass(frozen=True)
class Cop:
    """Computed COP values for one circuit."""

    c1: Tuple[float, ...]    # P(node = 1)
    obs: Tuple[float, ...]   # P(change at node visible at some PO)

    def c0(self, node: int) -> float:
        """P(node = 0)."""
        return 1.0 - self.c1[node]

    def detection_probability(self, circ: CompiledCircuit,
                              fault: Fault) -> float:
        """Estimated per-random-vector detection probability of a fault."""
        if fault.is_stem:
            node = fault.node
            activate = self.c1[node] if fault.value == 0 else self.c0(node)
            return activate * self.obs[node]
        src = circ.fanin[fault.node][fault.pin]
        activate = self.c1[src] if fault.value == 0 else self.c0(src)
        return activate * self._pin_obs(circ, fault.node, fault.pin)

    def _pin_obs(self, circ: CompiledCircuit, gate: int, pin: int) -> float:
        """Observability of one input pin (sensitize gate, then stem)."""
        return self.obs[gate] * _sensitization_probability(
            circ, self.c1, gate, pin
        )


def _sensitization_probability(circ: CompiledCircuit, c1,
                               gate: int, pin: int) -> float:
    """P(all other pins of ``gate`` hold non-masking values)."""
    gtype = circ.node_type[gate]
    srcs = circ.fanin[gate]
    probability = 1.0
    for k, src in enumerate(srcs):
        if k == pin:
            continue
        if gtype in (GateType.AND, GateType.NAND):
            probability *= c1[src]
        elif gtype in (GateType.OR, GateType.NOR):
            probability *= 1.0 - c1[src]
        # XOR family: every value sensitizes; factor 1.
    return probability


def compute_cop(circ: CompiledCircuit) -> Cop:
    """Compute COP with the independence approximation."""
    c1: List[float] = [0.5] * circ.num_nodes
    for node in circ.gate_nodes():
        gtype = circ.node_type[node]
        srcs = circ.fanin[node]
        if gtype in (GateType.AND, GateType.NAND):
            p = 1.0
            for s in srcs:
                p *= c1[s]
            c1[node] = (1.0 - p) if gtype == GateType.NAND else p
        elif gtype in (GateType.OR, GateType.NOR):
            p = 1.0
            for s in srcs:
                p *= 1.0 - c1[s]
            c1[node] = p if gtype == GateType.NOR else 1.0 - p
        elif gtype in (GateType.XOR, GateType.XNOR):
            p = 0.0
            for s in srcs:
                p = p * (1.0 - c1[s]) + (1.0 - p) * c1[s]
            c1[node] = (1.0 - p) if gtype == GateType.XNOR else p
        elif gtype == GateType.BUF:
            c1[node] = c1[srcs[0]]
        elif gtype == GateType.NOT:
            c1[node] = 1.0 - c1[srcs[0]]
        elif gtype == GateType.CONST0:
            c1[node] = 0.0
        elif gtype == GateType.CONST1:
            c1[node] = 1.0
        else:
            raise SimulationError(f"no COP rule for {gtype!r}")

    obs: List[float] = [0.0] * circ.num_nodes
    for node in range(circ.num_nodes - 1, -1, -1):
        best = 1.0 if circ.is_output[node] else 0.0
        for consumer in circ.fanout[node]:
            pins = [
                k for k, s in enumerate(circ.fanin[consumer]) if s == node
            ]
            for pin in pins:
                through = obs[consumer] * _sensitization_probability(
                    circ, c1, consumer, pin
                )
                if through > best:
                    best = through
        obs[node] = best

    return Cop(c1=tuple(c1), obs=tuple(obs))
