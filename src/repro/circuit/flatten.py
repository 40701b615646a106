"""Compiled, integer-indexed circuit form used by all algorithms.

:class:`CompiledCircuit` flattens a combinational :class:`~repro.circuit.
netlist.Circuit` into parallel arrays indexed by *node id*:

* nodes ``0 .. num_inputs-1`` are the primary inputs, in declaration order;
* the remaining nodes are gates, arranged so that every gate's fanin ids
  are strictly smaller than its own id (topological order).  A plain
  ``for node in range(num_inputs, num_nodes)`` loop is therefore a valid
  evaluation schedule — the inner loop of every simulator in the package.

Node ids, not signal names, are what faults, simulators and ATPG speak.
``names`` maps back for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuit.gate_types import GateType
from repro.circuit.netlist import Circuit
from repro.errors import CircuitStructureError


@dataclass(frozen=True)
class CompiledCircuit:
    """Immutable array-form combinational circuit.

    Attributes
    ----------
    name:
        Circuit name, carried through to reports.
    num_inputs:
        Number of primary inputs; these are nodes ``0..num_inputs-1``.
    node_type:
        :class:`GateType` code per node (``INPUT`` for PIs).
    fanin:
        Per node, the tuple of fanin node ids (empty for PIs/consts).
    fanout:
        Per node, the tuple of node ids that consume it (a node appears
        once per pin it drives, so a gate using the same signal twice
        lists the consumer twice).
    outputs:
        Node ids of the primary outputs, in declaration order.
    is_output:
        Per-node flag, ``True`` when the node is a primary output.
    level:
        Per-node logic depth: PIs at 0, gates at 1 + max(fanin levels).
    names:
        Signal name per node.
    """

    name: str
    num_inputs: int
    node_type: Tuple[GateType, ...]
    fanin: Tuple[Tuple[int, ...], ...]
    fanout: Tuple[Tuple[int, ...], ...]
    outputs: Tuple[int, ...]
    is_output: Tuple[bool, ...]
    level: Tuple[int, ...]
    names: Tuple[str, ...]
    _name_to_node: Dict[str, int] = field(repr=False, hash=False, compare=False,
                                          default_factory=dict)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes (inputs + gates)."""
        return len(self.node_type)

    @property
    def num_gates(self) -> int:
        """Number of gate nodes."""
        return self.num_nodes - self.num_inputs

    @property
    def num_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self.outputs)

    @property
    def max_level(self) -> int:
        """Logic depth of the circuit (0 for a circuit of bare wires)."""
        return max(self.level) if self.level else 0

    def node_of(self, signal_name: str) -> int:
        """Node id of a signal name (raises ``KeyError`` if unknown)."""
        return self._name_to_node[signal_name]

    def gate_nodes(self) -> range:
        """The gate node ids, in valid evaluation order."""
        return range(self.num_inputs, self.num_nodes)

    def describe_node(self, node: int) -> str:
        """Human-readable ``name(TYPE)`` string for diagnostics."""
        return f"{self.names[node]}({self.node_type[node].name})"


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Flatten a combinational :class:`Circuit` into a :class:`CompiledCircuit`.

    Raises :class:`CircuitStructureError` for sequential circuits (run
    full-scan extraction first), combinational cycles, references to
    undriven signals, or missing output drivers.
    """
    if circuit.is_sequential:
        raise CircuitStructureError(
            f"{circuit.name!r} contains DFFs; extract the combinational "
            "logic with repro.circuit.scan.full_scan_extract() first"
        )

    gate_by_name = circuit.gate_map()
    input_set = set(circuit.inputs)

    for gate in circuit.gates:
        for src in gate.inputs:
            if src not in input_set and src not in gate_by_name:
                raise CircuitStructureError(
                    f"gate {gate.name!r} references undriven signal {src!r}"
                )
    for out in circuit.outputs:
        if out not in input_set and out not in gate_by_name:
            raise CircuitStructureError(
                f"output {out!r} is not driven by any input or gate"
            )

    # Assign node ids: PIs first, then gates in topological order found by
    # an iterative DFS (recursion would overflow on deep circuits).
    node_id: Dict[str, int] = {name: i for i, name in enumerate(circuit.inputs)}
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done

    for root in [g.name for g in circuit.gates]:
        if root in state or root in node_id:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        while stack:
            name, pin = stack.pop()
            if pin == 0:
                if state.get(name) == 1:
                    continue
                state[name] = 0
            gate = gate_by_name[name]
            advanced = False
            for next_pin in range(pin, len(gate.inputs)):
                src = gate.inputs[next_pin]
                if src in input_set or state.get(src) == 1:
                    continue
                if state.get(src) == 0:
                    raise CircuitStructureError(
                        f"combinational cycle through {src!r} in {circuit.name!r}"
                    )
                stack.append((name, next_pin + 1))
                stack.append((src, 0))
                advanced = True
                break
            if not advanced:
                state[name] = 1
                order.append(name)

    for gname in order:
        node_id[gname] = len(node_id)

    num_nodes = len(node_id)
    node_type: List[GateType] = [GateType.INPUT] * num_nodes
    fanin: List[Tuple[int, ...]] = [()] * num_nodes
    names: List[str] = [""] * num_nodes
    for name, nid in node_id.items():
        names[nid] = name
    for gname in order:
        gate = gate_by_name[gname]
        nid = node_id[gname]
        node_type[nid] = gate.gtype
        fanin[nid] = tuple(node_id[src] for src in gate.inputs)

    fanout_lists: List[List[int]] = [[] for _ in range(num_nodes)]
    for nid in range(num_nodes):
        for src in fanin[nid]:
            fanout_lists[src].append(nid)

    level: List[int] = [0] * num_nodes
    for nid in range(len(circuit.inputs), num_nodes):
        srcs = fanin[nid]
        level[nid] = 1 + max((level[s] for s in srcs), default=0)

    outputs = tuple(node_id[name] for name in circuit.outputs)
    is_output = [False] * num_nodes
    for out in outputs:
        is_output[out] = True

    return CompiledCircuit(
        name=circuit.name,
        num_inputs=len(circuit.inputs),
        node_type=tuple(node_type),
        fanin=tuple(fanin),
        fanout=tuple(tuple(f) for f in fanout_lists),
        outputs=outputs,
        is_output=tuple(is_output),
        level=tuple(level),
        names=tuple(names),
        _name_to_node=dict(node_id),
    )


def to_netlist(compiled: CompiledCircuit, name: Optional[str] = None) -> Circuit:
    """Convert a :class:`CompiledCircuit` back to a named netlist.

    Useful for writing ``.bench`` files of generated/transformed circuits.
    """
    circuit = Circuit(name=name or compiled.name)
    for node in range(compiled.num_inputs):
        circuit.add_input(compiled.names[node])
    for node in compiled.gate_nodes():
        circuit.add_gate(
            compiled.names[node],
            compiled.node_type[node],
            tuple(compiled.names[s] for s in compiled.fanin[node]),
        )
    for out in compiled.outputs:
        circuit.add_output(compiled.names[out])
    return circuit
