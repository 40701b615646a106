"""SCOAP testability measures (Goldstein's controllability/observability).

``CC0(n)`` / ``CC1(n)`` estimate the effort to set node ``n`` to 0 / 1;
``CO(n)`` estimates the effort to observe it at a primary output.  PODEM
uses the controllabilities to pick backtrace paths and the observabilities
to pick D-frontier gates, which is what keeps its backtrack counts small
on the suite circuits.

Formulas (all "+1" per level, PIs at CC=1, POs at CO=0):

* AND:  ``CC1 = 1 + sum CC1(in)``; ``CC0 = 1 + min CC0(in)``  (OR dual);
* NOT:  ``CC0 = 1 + CC1(in)``, ``CC1 = 1 + CC0(in)``;
* XOR:  dynamic programming over the parity of inputs (exact for any
  arity, reduces to the textbook 2-input formula);
* input pin observability: ``CO(gate) + 1 +`` the cost of holding every
  *other* pin at a non-masking value (non-controlling value for AND/OR
  families, any defined value for XOR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType

#: Effectively-infinite effort; kept finite so sums stay well-behaved.
INFINITY = 10**9


@dataclass(frozen=True)
class Scoap:
    """Computed SCOAP measures for one circuit.

    ``cc0``/``cc1`` are indexed by node; ``co`` is the node (stem)
    observability; ``pin_co[node]`` holds the observability of each input
    pin of the node.
    """

    cc0: Tuple[int, ...]
    cc1: Tuple[int, ...]
    co: Tuple[int, ...]
    pin_co: Tuple[Tuple[int, ...], ...]


def _xor_controllability(pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
    """(CC0, CC1) of an XOR over inputs with the given (CC0, CC1) pairs."""
    even, odd = 0, INFINITY  # cost of parity-0 / parity-1 so far
    for cc0, cc1 in pairs:
        new_even = min(even + cc0, odd + cc1)
        new_odd = min(even + cc1, odd + cc0)
        even, odd = min(new_even, INFINITY), min(new_odd, INFINITY)
    return even, odd


def compute_scoap(circ: CompiledCircuit) -> Scoap:
    """Compute combinational SCOAP measures for ``circ``."""
    n = circ.num_nodes
    cc0 = [0] * n
    cc1 = [0] * n
    for pi in range(circ.num_inputs):
        cc0[pi] = 1
        cc1[pi] = 1

    for node in circ.gate_nodes():
        gtype = circ.node_type[node]
        srcs = circ.fanin[node]
        pairs = [(cc0[s], cc1[s]) for s in srcs]
        if gtype == GateType.AND or gtype == GateType.NAND:
            set1 = 1 + sum(p[1] for p in pairs)
            set0 = 1 + min(p[0] for p in pairs)
            if gtype == GateType.AND:
                cc0[node], cc1[node] = set0, set1
            else:
                cc0[node], cc1[node] = set1, set0
        elif gtype == GateType.OR or gtype == GateType.NOR:
            set0 = 1 + sum(p[0] for p in pairs)
            set1 = 1 + min(p[1] for p in pairs)
            if gtype == GateType.OR:
                cc0[node], cc1[node] = set0, set1
            else:
                cc0[node], cc1[node] = set1, set0
        elif gtype == GateType.XOR or gtype == GateType.XNOR:
            even, odd = _xor_controllability(pairs)
            if gtype == GateType.XOR:
                cc0[node], cc1[node] = 1 + even, 1 + odd
            else:
                cc0[node], cc1[node] = 1 + odd, 1 + even
        elif gtype == GateType.BUF:
            cc0[node], cc1[node] = 1 + pairs[0][0], 1 + pairs[0][1]
        elif gtype == GateType.NOT:
            cc0[node], cc1[node] = 1 + pairs[0][1], 1 + pairs[0][0]
        elif gtype == GateType.CONST0:
            cc0[node], cc1[node] = 1, INFINITY
        elif gtype == GateType.CONST1:
            cc0[node], cc1[node] = INFINITY, 1
        cc0[node] = min(cc0[node], INFINITY)
        cc1[node] = min(cc1[node], INFINITY)

    co = [INFINITY] * n
    pin_co: List[Tuple[int, ...]] = [()] * n
    for out in circ.outputs:
        co[out] = 0

    # Reverse topological sweep: a node's stem CO is known before its
    # fanin pins are computed because fanout goes to higher ids only.
    for node in range(n - 1, -1, -1):
        gtype = circ.node_type[node]
        srcs = circ.fanin[node]
        if not srcs:
            continue
        stem_co = co[node]
        pins: List[int] = []
        for j, src in enumerate(srcs):
            if stem_co >= INFINITY:
                pin = INFINITY
            elif gtype in (GateType.AND, GateType.NAND):
                hold = sum(cc1[s] for k, s in enumerate(srcs) if k != j)
                pin = stem_co + hold + 1
            elif gtype in (GateType.OR, GateType.NOR):
                hold = sum(cc0[s] for k, s in enumerate(srcs) if k != j)
                pin = stem_co + hold + 1
            elif gtype in (GateType.XOR, GateType.XNOR):
                hold = sum(
                    min(cc0[s], cc1[s]) for k, s in enumerate(srcs) if k != j
                )
                pin = stem_co + hold + 1
            else:  # BUF / NOT
                pin = stem_co + 1
            pin = min(pin, INFINITY)
            pins.append(pin)
            if pin < co[src]:
                co[src] = pin
        pin_co[node] = tuple(pins)

    return Scoap(
        cc0=tuple(cc0), cc1=tuple(cc1), co=tuple(co),
        pin_co=tuple(pin_co),
    )
