"""Numpy ``uint64`` bit-parallel simulation and its level schedule.

Same semantics as :mod:`repro.sim.bitsim` with signals stored as rows of a
``(num_nodes, num_words)`` ``uint64`` matrix, 64 patterns per word.  For
wide pattern blocks it amortizes per-gate dispatch over vectorized words,
while the big-int simulator does one Python op per gate regardless of
width; ``benchmarks/bench_ablation_backends.py`` measures the crossover.

:class:`LevelSchedule` levelizes a circuit once.  At each level, two or
more same-typed gates form a group that one numpy gather/op/scatter
evaluates; every other gate is evaluated alone, straight into its own row
with ufunc ``out=``.  The schedule is the propagation core of the
true-value simulation here and of the numpy fault-simulation engine
(:mod:`repro.fsim.npfsim`), which propagates its fault-free
``(num_nodes, W)`` block through it as built.  The engine's stem-flip
tensor has fewer rows than nodes, because nodes whose live levels never
meet share a row; :meth:`LevelSchedule.remap` gives that ``(rows, B, W)``
tensor the same schedule over row ids, built once per engine.  Big-int
words cross into and out of the ``uint64`` layout only through the
:class:`~repro.utils.detmatrix.DetectionMatrix` converters, which share
its word order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.errors import SimulationError
from repro.sim.patterns import PatternSet
from repro.utils.detmatrix import DetectionMatrix

ONES64 = np.uint64(0xFFFFFFFFFFFFFFFF)


#: Per gate type with inputs: the ufunc that folds its input words
#: (unused at one input) and whether the folded word is inverted.
_FOLDS = {
    GateType.BUF: (None, False),
    GateType.NOT: (None, True),
    GateType.AND: (np.bitwise_and, False),
    GateType.NAND: (np.bitwise_and, True),
    GateType.OR: (np.bitwise_or, False),
    GateType.NOR: (np.bitwise_or, True),
    GateType.XOR: (np.bitwise_xor, False),
    GateType.XNOR: (np.bitwise_xor, True),
}

#: The word each constant gate writes.
_CONSTANTS = {GateType.CONST0: np.uint64(0), GateType.CONST1: ONES64}


@dataclass(frozen=True)
class GateGroup:
    """Two or more same-typed, same-arity gates of one level, as arrays.

    ``nodes[k]`` is evaluated from ``srcs[0][k], srcs[1][k], ...`` — one
    numpy gather per pin, one op per group, one scatter back.
    """

    gtype: GateType
    nodes: np.ndarray  # (G,) int64 node ids
    srcs: Tuple[np.ndarray, ...]  # arity arrays of (G,) int64 fanin ids


@dataclass(frozen=True)
class Level:
    """One topological level: gate groups, then gates evaluated alone."""

    number: int
    groups: Tuple[GateGroup, ...]
    #: Gates evaluated one at a time into their own rows:
    #: ``(node, gtype, fanin ids)``.
    lone: Tuple[Tuple[int, GateType, Tuple[int, ...]], ...]


class LevelSchedule:
    """A circuit levelized once into per-level gate groups and lone gates.

    Construction groups each level's 1- and 2-input gates by ``(gtype,
    arity)``; a group of two or more becomes a :class:`GateGroup`, and
    every other gate (a group of one, a constant, a wider gate) is
    evaluated alone, in place.  :meth:`eval_level` works on any value
    tensor whose leading axis the levels index — node ids for the
    ``(N, W)`` true-value matrix, tensor rows for the ``(rows, B, W)``
    stem-flip tensor of a :meth:`remap` copy — because numpy indexing is
    shape-agnostic past axis 0.
    """

    #: Gate types grouped at each arity; any other gate — including a
    #: degenerate 1-input AND/OR/... — is evaluated alone.
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
            lone: List[int] = []
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
                    lone.append(node)
            groups = []
            for (gtype, arity), nodes in sorted(buckets.items()):
                if len(nodes) == 1:
                    lone.extend(nodes)
                    continue
                node_arr = np.asarray(nodes, dtype=np.int64)
                src_arrs = tuple(
                    np.asarray([circ.fanin[n][pin] for n in nodes],
                               dtype=np.int64)
                    for pin in range(arity)
                )
                groups.append(GateGroup(gtype, node_arr, src_arrs))
            levels.append(Level(lvl, tuple(groups), tuple(
                (node, circ.node_type[node], circ.fanin[node])
                for node in lone
            )))
        self.levels: Tuple[Level, ...] = tuple(levels)

    def remap(self, rows: np.ndarray) -> "LevelSchedule":
        """The same schedule over a tensor that keeps node ``n`` in row
        ``rows[n]``.

        Every gate, group and level stays as it is; only the ids that
        index the value tensor change.  The map must keep a node's row
        to itself from the node's level through the last level that
        reads it, so that no level writes a row it reads
        (:func:`repro.fsim.npfsim.live_rows` builds such a map).
        """
        row_of = rows.tolist().__getitem__
        remapped = copy.copy(self)
        remapped.levels = tuple(
            Level(level.number,
                  tuple(GateGroup(group.gtype, rows[group.nodes],
                                  tuple(rows[src] for src in group.srcs))
                        for group in level.groups),
                  tuple((row_of(node), gtype, tuple(map(row_of, srcs)))
                        for node, gtype, srcs in level.lone))
            for level in self.levels
        )
        return remapped

    def eval_level(self, level: Level, values: np.ndarray) -> None:
        """Evaluate one level's gates in place on a value tensor."""
        for group in level.groups:
            fold, invert = _FOLDS[group.gtype]
            out = values[group.srcs[0]]  # a gather: a fresh array
            if len(group.srcs) == 2:
                fold(out, values[group.srcs[1]], out=out)
            if invert:
                np.invert(out, out=out)
            values[group.nodes] = out
        for node, gtype, srcs in level.lone:
            _eval_in_place(values, node, gtype, srcs)

    def propagate(self, values: np.ndarray) -> np.ndarray:
        """Run all levels over ``values`` (inputs already filled) in place."""
        for level in self.levels:
            self.eval_level(level, values)
        return values


def _eval_in_place(values: np.ndarray, node: int, gtype: GateType,
                   srcs: Sequence[int]) -> None:
    """Evaluate one gate straight into its row, with no temporaries.

    Every operand is a view of one row; a gate never reads its own row,
    so ``out=`` never aliases an input.
    """
    row = values[node]
    if not srcs:
        row.fill(_CONSTANTS[gtype])
        return
    fold, invert = _FOLDS[gtype]
    if len(srcs) == 1:
        if invert:
            np.invert(values[srcs[0]], out=row)
        else:
            row[...] = values[srcs[0]]
        return
    fold(values[srcs[0]], values[srcs[1]], out=row)
    for src in srcs[2:]:
        fold(row, values[src], out=row)
    if invert:
        np.invert(row, out=row)


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
