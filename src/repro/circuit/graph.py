"""Structural graph queries over compiled circuits.

Forward cones drive fault simulation and X-path checks; transitive fanin
drives ATPG search-space restriction; reachability-to-output drives dead
logic trimming in the synthetic generator.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.circuit.flatten import CompiledCircuit


def output_cone(circ: CompiledCircuit, node: int) -> List[int]:
    """Nodes reachable forward from ``node`` (inclusive), in id order.

    Because node ids are topological, returning them sorted gives a valid
    propagation schedule for fault effects originating at ``node``.
    """
    seen: Set[int] = {node}
    stack = [node]
    while stack:
        cur = stack.pop()
        for nxt in circ.fanout[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return sorted(seen)


def transitive_fanin(circ: CompiledCircuit, nodes: Sequence[int]) -> List[int]:
    """All nodes feeding (directly or not) any of ``nodes``, inclusive."""
    seen: Set[int] = set(nodes)
    stack = list(nodes)
    while stack:
        cur = stack.pop()
        for src in circ.fanin[cur]:
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return sorted(seen)


def reaches_output(circ: CompiledCircuit) -> List[bool]:
    """Per-node flag: does the node reach some primary output?

    Computed by a reverse sweep in decreasing id order (reverse topological
    order), so the cost is linear in circuit size.
    """
    reach = [False] * circ.num_nodes
    for out in circ.outputs:
        reach[out] = True
    for node in range(circ.num_nodes - 1, -1, -1):
        if reach[node]:
            for src in circ.fanin[node]:
                reach[src] = True
    return reach


def output_reach_masks(circ: CompiledCircuit) -> List[int]:
    """Per-node bitmask of reachable primary outputs (one reverse sweep).

    Bit ``k`` of entry ``n`` is set iff output ``circ.outputs[k]`` lies
    in the forward cone of node ``n`` — equivalently, iff ``n`` is in
    ``transitive_fanin(circ, [circ.outputs[k]])``.  One linear sweep in
    decreasing id order (reverse topological) answers the backward-cone
    membership question for *every* (node, output) pair at once, which
    is what the diagnosis chain ranker needs: walking causal chains
    backward from failing observation points without one graph traversal
    per candidate site.
    """
    masks = [0] * circ.num_nodes
    for k, out in enumerate(circ.outputs):
        masks[out] |= 1 << k
    for node in range(circ.num_nodes - 1, -1, -1):
        if masks[node]:
            bits = masks[node]
            for src in circ.fanin[node]:
                masks[src] |= bits
    return masks
