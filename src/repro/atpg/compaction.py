"""Test reordering after the fact.

:func:`reorder_by_detection` is the paper's reference [7] (Lin et al.,
ITC'01): permute an existing test set so that tests detecting many
faults come first, steepening the fault-coverage curve *after the
fact*.  The paper's argument is that ADI-ordered *generation* produces
inherently steep test sets; ``benchmarks/bench_ablation_reorder.py``
and ``examples/reordering_comparison.py`` run that comparison.

It works on per-test detection words (:func:`detection_matrix`, one
big-int column per test), the transpose of one packed no-dropping
simulation through the engine registry
(:func:`repro.faults.registry.query_detection_matrix`).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuit.flatten import CompiledCircuit
from repro.faults.model import Fault
from repro.faults.registry import query_detection_matrix
from repro.fsim.backend import resolve_backend
from repro.sim.patterns import PatternSet


def detection_matrix(circ: CompiledCircuit, faults: Sequence[Fault],
                     tests: PatternSet) -> List[int]:
    """Per-test detection words: bit ``i`` of entry ``t`` = test ``t``
    detects fault ``i``.

    This is the transpose of the packed per-fault detection matrix
    (:meth:`~repro.utils.detmatrix.DetectionMatrix.column_bigints`):
    columns are faults here because reordering reasons about tests.
    """
    rows = query_detection_matrix(resolve_backend(circ), tests, faults)
    return rows.column_bigints()


def reorder_by_detection(circ: CompiledCircuit, faults: Sequence[Fault],
                         tests: PatternSet,
                         greedy: bool = True) -> PatternSet:
    """Reorder an existing test set for a steep coverage curve ([7]).

    ``greedy=True`` repeatedly picks the test with the most *newly*
    detected faults (marginal coverage); ``greedy=False`` is the simpler
    static sort by total detection count.  The full test set is kept —
    only the order changes.
    """
    matrix = detection_matrix(circ, faults, tests)
    indices = list(range(tests.num_patterns))
    if not greedy:
        order = sorted(indices, key=lambda t: (-matrix[t].bit_count(), t))
        return tests.select(order)

    covered = 0
    order: List[int] = []
    remaining = set(indices)
    while remaining:
        best = max(
            remaining,
            key=lambda t: (
                (matrix[t] & ~covered).bit_count(),
                matrix[t].bit_count(),
                -t,
            ),
        )
        covered |= matrix[best]
        order.append(best)
        remaining.discard(best)
    return tests.select(order)
