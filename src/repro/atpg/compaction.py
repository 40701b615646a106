"""Static test-set compaction and test reordering.

Two post-processing families the paper positions itself against:

* **Static compaction** — shrink an existing test set without losing
  coverage: reverse-order fault simulation (tests that detect nothing
  new when simulated last-to-first are dropped) and greedy set-cover
  selection.
* **Test reordering** (the paper's reference [7], Lin et al. ITC'01) —
  permute an existing test set so that tests detecting many faults come
  first, steepening the fault-coverage curve *after the fact*.  The
  paper's argument is that ADI-ordered *generation* produces inherently
  steep test sets; ``benchmarks/bench_ablation_reorder.py`` runs that
  comparison.

All routines work on per-test detection words (one big-int column per
test), the transpose of one packed no-dropping simulation through the
engine registry (:func:`repro.faults.registry.query_detection_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    columns are faults here because compaction reasons about tests.
    """
    rows = query_detection_matrix(resolve_backend(circ), tests, faults)
    return rows.column_bigints()


@dataclass
class CompactionResult:
    """A compacted/reordered test set and its provenance."""

    tests: PatternSet
    kept_indices: List[int]
    detected_before: int
    detected_after: int
    original_size: int = 0

    @property
    def removed(self) -> int:
        """How many tests the pass dropped."""
        return self.original_size - len(self.kept_indices)


def reverse_order_compaction(circ: CompiledCircuit, faults: Sequence[Fault],
                             tests: PatternSet) -> CompactionResult:
    """Reverse-order fault simulation compaction.

    Simulate the tests from last to first with fault dropping; a test
    that detects no still-undetected fault is redundant (everything it
    detects is detected by a later — i.e. earlier-simulated — test).
    Coverage is preserved exactly.
    """
    matrix = detection_matrix(circ, faults, tests)
    all_detected = 0
    for word in matrix:
        all_detected |= word
    covered = 0
    kept_reversed: List[int] = []
    for t in range(tests.num_patterns - 1, -1, -1):
        new = matrix[t] & ~covered
        if new:
            covered |= matrix[t]
            kept_reversed.append(t)
    kept = sorted(kept_reversed)
    return CompactionResult(
        tests=tests.select(kept),
        kept_indices=kept,
        detected_before=all_detected.bit_count(),
        detected_after=covered.bit_count(),
        original_size=tests.num_patterns,
    )


def greedy_cover_compaction(circ: CompiledCircuit, faults: Sequence[Fault],
                            tests: PatternSet) -> CompactionResult:
    """Greedy set-cover compaction (also yields a steep order).

    Repeatedly keep the test covering the most still-uncovered faults.
    The kept tests appear in greedy order — most-detecting first — so
    the output doubles as a reordered, steep test set.
    """
    matrix = detection_matrix(circ, faults, tests)
    all_detected = 0
    for word in matrix:
        all_detected |= word
    covered = 0
    kept: List[int] = []
    remaining = set(range(tests.num_patterns))
    while covered != all_detected and remaining:
        best = max(
            remaining,
            key=lambda t: ((matrix[t] & ~covered).bit_count(), -t),
        )
        gain = (matrix[best] & ~covered).bit_count()
        if gain == 0:
            break
        covered |= matrix[best]
        kept.append(best)
        remaining.discard(best)
    return CompactionResult(
        tests=tests.select(kept),
        kept_indices=kept,
        detected_before=all_detected.bit_count(),
        detected_after=covered.bit_count(),
        original_size=tests.num_patterns,
    )


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
