"""Fault lines and the stuck-at fault universe.

The *full universe* contains two faults (s-a-0, s-a-1) per line, as the
transition universe holds two (slow-to-fall, slow-to-rise), where the
lines are:

* the output stem of every node (primary inputs included), and
* every input pin of every gate whose driver line *branches* — because the
  driver has fanout greater than one, or because the driver is a primary
  output that additionally feeds logic (the external observation point
  counts as a fanout).  Pins fed by non-branching drivers share their
  driver's stem line, so enumerating them separately would double-count.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.circuit.flatten import CompiledCircuit
from repro.faults.model import STEM, Fault


def line_branches(circ: CompiledCircuit, src: int) -> bool:
    """Does the output line of ``src`` branch?

    True when the node drives more than one pin, or drives at least one
    pin *and* is itself a primary output (observed externally).
    """
    fanout = len(circ.fanout[src])
    return fanout > 1 or (fanout >= 1 and circ.is_output[src])


def fault_lines(circ: CompiledCircuit) -> List[Tuple[int, int]]:
    """Every fault line ``(node, pin)`` of ``circ``, in ``(node, pin)`` order.

    Each fault model puts two faults on every line; both universes are
    built from this one list, so they share their lines and their order.
    """
    lines: List[Tuple[int, int]] = []
    for node in range(circ.num_nodes):
        if circ.fanout[node] or circ.is_output[node]:
            # A node with neither fanout nor observation has no line in
            # the circuit (e.g. an unused primary input): no stem faults.
            lines.append((node, STEM))
        for pin, src in enumerate(circ.fanin[node]):
            if line_branches(circ, src):
                lines.append((node, pin))
    return lines


def input_line(circ: CompiledCircuit, gate: int, pin: int) -> Tuple[int, int]:
    """The line feeding ``gate.pin``: the branch, or the driver's stem
    when the driver's line does not branch."""
    src = circ.fanin[gate][pin]
    if line_branches(circ, src):
        return gate, pin
    return src, STEM


def full_universe(circ: CompiledCircuit) -> List[Fault]:
    """All stuck-at faults of ``circ``, in (node, pin, value) order.

    The order is deterministic and topological; the experiments use it as
    the paper's "original order" ``Forig``.
    """
    return [Fault(node, pin, value) for node, pin in fault_lines(circ)
            for value in (0, 1)]
