"""Structural fault equivalence collapsing.

Two faults are *equivalent* when every test detecting one detects the
other; targeting one representative per equivalence class shrinks the
target list without losing coverage.  The classical structural rules
implemented here (union-find over the full universe):

* AND:  s-a-0 on any input line  ==  s-a-0 on the output;
* NAND: s-a-0 on any input line  ==  s-a-1 on the output;
* OR:   s-a-1 on any input line  ==  s-a-1 on the output;
* NOR:  s-a-1 on any input line  ==  s-a-0 on the output;
* NOT:  input s-a-v  ==  output s-a-(1-v);
* BUF:  input s-a-v  ==  output s-a-v.

"Input line" means the branch fault when the driver line branches
(fanout above one, or a primary output that also feeds logic), otherwise
the driver's stem fault — so equivalences chain through fanout-free
regions exactly as in the textbook treatment, and never across a point
that is observed externally.  XOR-family gates admit no structural
input/output equivalence.  The test suite verifies semantic equivalence
of every collapsed class by exhaustive simulation on small circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.faults.model import STEM, Fault
from repro.faults.universe import full_universe, input_line


class _UnionFind:
    """Minimal union-find with path halving."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic: the smaller index becomes the root.
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass(frozen=True)
class CollapsedFaults:
    """Result of equivalence collapsing.

    ``representatives`` is ordered by fault order (topological), which the
    experiments treat as the paper's original fault order ``Forig``.

    The container is fault-model-agnostic: stuck-at collapsing
    (:func:`collapse_faults`) and transition-fault collapsing
    (:func:`repro.faults.transition.collapse_transition_faults`) both
    return it, with members of the respective fault type.
    """

    universe: tuple
    representatives: tuple
    class_index: Dict[Fault, int]

    @property
    def num_classes(self) -> int:
        """Number of equivalence classes (= collapsed fault count)."""
        return len(self.representatives)

    def representative_of(self, fault: Fault) -> Fault:
        """Map any universe fault to its class representative."""
        return self.representatives[self.class_index[fault]]

    def members(self, representative: Fault) -> List[Fault]:
        """All universe faults in the representative's class."""
        idx = self.class_index[representative]
        return [f for f in self.universe if self.class_index[f] == idx]


def collapse_faults(circ: CompiledCircuit,
                    universe: Sequence[Fault] | None = None) -> CollapsedFaults:
    """Collapse ``universe`` (default: the full universe) by equivalence."""
    if universe is None:
        universe = full_universe(circ)
    index: Dict[Fault, int] = {f: i for i, f in enumerate(universe)}
    uf = _UnionFind(len(universe))

    def merge(a: Fault, b: Fault) -> None:
        ia = index.get(a)
        ib = index.get(b)
        if ia is not None and ib is not None:
            uf.union(ia, ib)

    for gate in circ.gate_nodes():
        gtype = circ.node_type[gate]
        fanin = circ.fanin[gate]
        out0 = Fault(gate, STEM, 0)
        out1 = Fault(gate, STEM, 1)
        if gtype == GateType.AND:
            for pin in range(len(fanin)):
                merge(Fault(*input_line(circ, gate, pin), 0), out0)
        elif gtype == GateType.NAND:
            for pin in range(len(fanin)):
                merge(Fault(*input_line(circ, gate, pin), 0), out1)
        elif gtype == GateType.OR:
            for pin in range(len(fanin)):
                merge(Fault(*input_line(circ, gate, pin), 1), out1)
        elif gtype == GateType.NOR:
            for pin in range(len(fanin)):
                merge(Fault(*input_line(circ, gate, pin), 1), out0)
        elif gtype == GateType.NOT:
            merge(Fault(*input_line(circ, gate, 0), 0), out1)
            merge(Fault(*input_line(circ, gate, 0), 1), out0)
        elif gtype == GateType.BUF:
            merge(Fault(*input_line(circ, gate, 0), 0), out0)
            merge(Fault(*input_line(circ, gate, 0), 1), out1)
        # XOR / XNOR / CONST: no structural equivalences.

    return gather_classes(universe, uf)


def gather_classes(universe: Sequence, uf: _UnionFind) -> CollapsedFaults:
    """Build a :class:`CollapsedFaults` from a union-find over ``universe``.

    The representative is the member whose ``(node, pin, ...)`` tuple sorts
    lowest, i.e. the fault closest to the inputs.  Any deterministic pick
    works; this one keeps the original order stable under re-collapsing.
    Shared by the stuck-at and transition-fault collapsers.
    """
    roots: Dict[int, List[int]] = {}
    for i in range(len(universe)):
        roots.setdefault(uf.find(i), []).append(i)

    rep_pairs: List[tuple] = []  # (rep fault, class member indices)
    for members in roots.values():
        rep_idx = min(members)
        rep_pairs.append((universe[rep_idx], members))
    rep_pairs.sort(key=lambda pair: pair[0])

    class_index: Dict[Fault, int] = {}
    representatives: List[Fault] = []
    for class_id, (rep, members) in enumerate(rep_pairs):
        representatives.append(rep)
        for i in members:
            class_index[universe[i]] = class_id

    return CollapsedFaults(
        universe=tuple(universe),
        representatives=tuple(representatives),
        class_index=class_index,
    )


def collapsed_fault_list(circ: CompiledCircuit) -> List[Fault]:
    """Convenience: the collapsed representatives in original order."""
    return list(collapse_faults(circ).representatives)
