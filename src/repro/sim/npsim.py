"""Numpy ``uint64`` bit-parallel simulation backend.

Same semantics as :mod:`repro.sim.bitsim` with signals stored as rows of a
``(num_nodes, num_words)`` ``uint64`` matrix, 64 patterns per word.  This
backend exists as an ablation (DESIGN.md §6): for very wide pattern blocks
it amortizes per-gate dispatch over vectorized words, while the big-int
backend does one Python op per gate regardless of width.  The benchmark
``bench_ablation_backends.py`` measures the crossover.

:class:`LevelSchedule` levelizes a circuit once into contiguous per-level
gate arrays so that one numpy gather/op/scatter evaluates a whole group of
same-typed gates at a time.  It is the one propagation core of both the
levelized true-value simulation here and the batched fault simulator in
:mod:`repro.fsim.npfsim` (the same schedule propagates ``(num_nodes, W)``
and ``(num_nodes, B, W)`` value tensors).  Big-int words cross into and
out of the ``uint64`` layout only through the
:class:`~repro.utils.detmatrix.DetectionMatrix` converters, which share
its word order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.errors import SimulationError
from repro.sim.patterns import PatternSet
from repro.utils.detmatrix import DetectionMatrix

ONES64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class GateGroup:
    """Same-typed, same-arity gates of one level, as contiguous arrays.

    ``nodes[k]`` is evaluated from ``srcs[0][k], srcs[1][k], ...`` — one
    numpy gather per pin, one op per group, one scatter back.
    """

    gtype: GateType
    nodes: np.ndarray  # (G,) int64 node ids
    srcs: Tuple[np.ndarray, ...]  # arity arrays of (G,) int64 fanin ids


@dataclass(frozen=True)
class Level:
    """One topological level: vectorized groups plus odd-arity leftovers."""

    number: int
    groups: Tuple[GateGroup, ...]
    #: Gates not worth grouping (arity 0 or > 2): (node, gtype, fanin ids).
    odd: Tuple[Tuple[int, GateType, Tuple[int, ...]], ...]


class LevelSchedule:
    """A circuit levelized once into per-level contiguous gate arrays.

    Construction groups each level's gates by ``(gtype, arity)`` for the
    1- and 2-input gates that dominate every netlist; constants and wider
    gates are kept as per-gate leftovers.  :meth:`eval_level` then works
    on any value tensor whose leading axis is the node id — ``(N, W)``
    for true-value simulation, ``(N, B, W)`` for batched fault simulation
    — because numpy fancy indexing is shape-agnostic past axis 0.
    """

    #: Gate types eval_level vectorizes at each arity; anything else —
    #: including degenerate 1-input AND/OR/... — goes down the odd path.
    VECTORIZED_1 = frozenset({GateType.BUF, GateType.NOT})
    VECTORIZED_2 = frozenset({
        GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
        GateType.XOR, GateType.XNOR,
    })

    def __init__(self, circ: CompiledCircuit):
        self.circ = circ
        by_level: dict = {}
        for node in circ.gate_nodes():
            by_level.setdefault(circ.level[node], []).append(node)

        levels: List[Level] = []
        for lvl in sorted(by_level):
            buckets: dict = {}
            odd: List[Tuple[int, GateType, Tuple[int, ...]]] = []
            for node in by_level[lvl]:
                gtype = circ.node_type[node]
                srcs = circ.fanin[node]
                vectorized = (
                    gtype in self.VECTORIZED_1 if len(srcs) == 1
                    else gtype in self.VECTORIZED_2 if len(srcs) == 2
                    else False
                )
                if vectorized:
                    buckets.setdefault((gtype, len(srcs)), []).append(node)
                else:
                    odd.append((node, gtype, srcs))
            groups = []
            for (gtype, arity), nodes in sorted(buckets.items()):
                node_arr = np.asarray(nodes, dtype=np.int64)
                src_arrs = tuple(
                    np.asarray([circ.fanin[n][pin] for n in nodes],
                               dtype=np.int64)
                    for pin in range(arity)
                )
                groups.append(GateGroup(gtype, node_arr, src_arrs))
            levels.append(Level(lvl, tuple(groups), tuple(odd)))
        self.levels: Tuple[Level, ...] = tuple(levels)

    def eval_level(self, level: Level, values: np.ndarray) -> None:
        """Evaluate one level's gates in place on a value tensor."""
        for group in level.groups:
            gtype = group.gtype
            a = values[group.srcs[0]]
            if len(group.srcs) == 2:
                b = values[group.srcs[1]]
                if gtype == GateType.AND:
                    out = a & b
                elif gtype == GateType.NAND:
                    out = (a & b) ^ ONES64
                elif gtype == GateType.OR:
                    out = a | b
                elif gtype == GateType.NOR:
                    out = (a | b) ^ ONES64
                elif gtype == GateType.XOR:
                    out = a ^ b
                elif gtype == GateType.XNOR:
                    out = (a ^ b) ^ ONES64
                else:
                    raise SimulationError(
                        f"cannot evaluate 2-input node type {gtype!r}"
                    )
            else:
                if gtype == GateType.BUF:
                    out = a
                elif gtype == GateType.NOT:
                    out = a ^ ONES64
                else:
                    raise SimulationError(
                        f"cannot evaluate 1-input node type {gtype!r}"
                    )
            values[group.nodes] = out
        for node, gtype, srcs in level.odd:
            values[node] = _eval_odd_gate(gtype, values, srcs)

    def propagate(self, values: np.ndarray) -> np.ndarray:
        """Run all levels over ``values`` (inputs already filled) in place."""
        for level in self.levels:
            self.eval_level(level, values)
        return values


def _eval_odd_gate(gtype: GateType, values: np.ndarray,
                   srcs: Sequence[int]) -> np.ndarray:
    """Evaluate one arity-0 or arity>2 gate on a value tensor."""
    if gtype == GateType.CONST0:
        return np.zeros(values.shape[1:], dtype=np.uint64)
    if gtype == GateType.CONST1:
        return np.full(values.shape[1:], ONES64, dtype=np.uint64)
    if gtype == GateType.BUF:
        return values[srcs[0]].copy()
    if gtype == GateType.NOT:
        return values[srcs[0]] ^ ONES64
    if gtype in (GateType.AND, GateType.NAND):
        acc = values[srcs[0]].copy()
        for s in srcs[1:]:
            acc &= values[s]
        return acc if gtype == GateType.AND else acc ^ ONES64
    if gtype in (GateType.OR, GateType.NOR):
        acc = values[srcs[0]].copy()
        for s in srcs[1:]:
            acc |= values[s]
        return acc if gtype == GateType.OR else acc ^ ONES64
    if gtype in (GateType.XOR, GateType.XNOR):
        acc = values[srcs[0]].copy()
        for s in srcs[1:]:
            acc ^= values[s]
        return acc if gtype == GateType.XOR else acc ^ ONES64
    raise SimulationError(f"cannot evaluate node type {gtype!r}")


def simulate_matrix_levelized(circ: CompiledCircuit, inputs: np.ndarray,
                              schedule: LevelSchedule | None = None
                              ) -> np.ndarray:
    """Simulate all nodes through a :class:`LevelSchedule`.

    ``inputs`` holds one row of words per primary input; the result has
    one row per node.  Passing a prebuilt ``schedule`` amortizes
    levelization across calls; the fault-simulation backend does exactly
    that.
    """
    if inputs.shape[0] != circ.num_inputs:
        raise SimulationError(
            f"{circ.name}: matrix has {inputs.shape[0]} input rows, "
            f"expected {circ.num_inputs}"
        )
    if schedule is None:
        schedule = LevelSchedule(circ)
    values = np.zeros((circ.num_nodes,) + inputs.shape[1:], dtype=np.uint64)
    values[: circ.num_inputs] = inputs
    return schedule.propagate(values)


def simulate(circ: CompiledCircuit, patterns: PatternSet) -> List[int]:
    """Big-int-word interface over the numpy backend.

    Returns the same per-node big-int list as :func:`repro.sim.bitsim.
    simulate`, so the two backends are drop-in interchangeable (and the
    test suite asserts they agree).
    """
    if patterns.num_inputs != circ.num_inputs:
        raise SimulationError(
            f"{circ.name}: pattern set has {patterns.num_inputs} inputs, "
            f"circuit has {circ.num_inputs}"
        )
    width = patterns.num_patterns
    inputs = DetectionMatrix.from_bigints(patterns.words, width)
    values = simulate_matrix_levelized(circ, inputs.words)
    return DetectionMatrix.from_rows(values, width).to_bigints()
