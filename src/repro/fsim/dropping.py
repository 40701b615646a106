"""Fault-dropping simulation with strict vector-order semantics.

Vectors are conceptually applied one at a time; a fault is dropped at its
*first* detecting vector.  Because first-detection is the same with or
without dropping, the simulator processes patterns in parallel blocks for
speed and then resolves order inside each block — the results are
bit-identical to a one-vector-at-a-time loop (property-tested).  Each
block is queried as a packed :class:`~repro.utils.detmatrix.
DetectionMatrix`, so first-detection indices and survivors come from
vectorized lowest-set-bit / row-any reductions over ``uint64`` words
rather than per-fault big-int scans.

This single routine powers three of the paper's needs:

* the selection of ``U`` (simulate random vectors "until approximately
  90% of the circuit faults are detected", Section 4);
* fault-coverage curves of generated test sets (Figure 1);
* the per-test first-detection data behind the ``AVE`` metric (Table 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.faults.registry import PatternBlock as _PatternBlock
from repro.faults.registry import (
    query_detection_matrix as _query_detection_matrix,
)
from repro.fsim.backend import FaultSimBackend, resolve_backend

@dataclass
class DropSimResult:
    """Outcome of a fault-dropping run.

    ``num_simulated`` is the number of vectors actually consumed (smaller
    than the supplied set when a stop fraction was hit).
    """

    total_faults: int
    num_simulated: int
    first_detection: Dict[Fault, int] = field(default_factory=dict)

    @property
    def num_detected(self) -> int:
        """Faults detected within the consumed prefix."""
        return len(self.first_detection)

    @property
    def coverage(self) -> float:
        """Detected fraction of the supplied fault list."""
        if self.total_faults == 0:
            return 1.0
        return self.num_detected / self.total_faults

    def detections_per_vector(self) -> List[int]:
        """Count of first detections at each consumed vector."""
        counts = [0] * self.num_simulated
        for idx in self.first_detection.values():
            counts[idx] += 1
        return counts

    def coverage_curve(self) -> List[int]:
        """Cumulative detected-fault counts: entry i = detected by vectors 0..i.

        This is the paper's ``nord(i)`` sequence (1-based in the paper).
        """
        curve: List[int] = []
        running = 0
        for count in self.detections_per_vector():
            running += count
            curve.append(running)
        return curve

    def undetected(self, faults: Sequence[Fault]) -> List[Fault]:
        """Subset of ``faults`` not detected by the consumed prefix."""
        return [f for f in faults if f not in self.first_detection]


def drop_simulate(
    circ: CompiledCircuit,
    faults: Sequence[Fault],
    patterns: _PatternBlock,
    chunk_size: int = 64,
    stop_fraction: Optional[float] = None,
    backend: Union[str, FaultSimBackend, None] = None,
) -> DropSimResult:
    """Simulate ``patterns`` in order with fault dropping.

    When ``stop_fraction`` is given, simulation stops at the exact vector
    whose detections push coverage to at least that fraction of
    ``len(faults)``; faults first detected by later vectors stay
    undetected, matching the paper's truncation of ``U``.

    ``patterns`` may be a :class:`PatternSet` of stuck-at vectors or a
    :class:`PatternPairSet` of two-pattern transition tests (then
    ``faults`` must be transition faults); ``backend`` selects the
    fault-simulation engine used per chunk (see :mod:`repro.fsim.backend`).
    """
    if stop_fraction is not None and not 0.0 < stop_fraction <= 1.0:
        raise SimulationError("stop_fraction must be in (0, 1]")
    total = len(faults)
    result = DropSimResult(total_faults=total, num_simulated=0)
    if total == 0:
        result.num_simulated = patterns.num_patterns if stop_fraction is None else 0
        return result
    target = None
    if stop_fraction is not None:
        # Smallest detected count d with d / total >= stop_fraction: the
        # comparison DropSimResult.coverage makes.
        target = int(total * stop_fraction)
        while target / total < stop_fraction:
            target += 1

    engine = resolve_backend(circ, backend)
    remaining: List[Fault] = list(faults)
    detected_count = 0
    base = 0
    for chunk in patterns.chunks(chunk_size):
        width = chunk.num_patterns
        # Per-chunk first detection, vectorized: one packed matrix query,
        # one lowest-set-bit reduction over its uint64 words, survivors
        # via row-any — no per-fault big-int scans.
        matrix = _query_detection_matrix(engine, chunk, remaining)
        first = matrix.first_set_bits()
        chunk_hits: List[Tuple[int, Fault]] = [
            (int(first[row]), remaining[row])
            for row in np.flatnonzero(first >= 0)
        ]
        survivors: List[Fault] = [
            remaining[row] for row in np.flatnonzero(first < 0)
        ]

        if target is not None and detected_count + len(chunk_hits) >= target:
            # The threshold falls inside this chunk: replay detections in
            # vector order to find the exact crossing vector.
            chunk_hits.sort(key=lambda hit: hit[0])
            crossing_local = None
            running = detected_count
            per_vector: Dict[int, List[Fault]] = {}
            for local, fault in chunk_hits:
                per_vector.setdefault(local, []).append(fault)
            for local in range(width):
                hits = per_vector.get(local, [])
                running += len(hits)
                if running >= target:
                    crossing_local = local
                    break
            if crossing_local is not None:
                for local, fault in chunk_hits:
                    if local <= crossing_local:
                        result.first_detection[fault] = base + local
                result.num_simulated = base + crossing_local + 1
                return result

        for local, fault in chunk_hits:
            result.first_detection[fault] = base + local
        detected_count += len(chunk_hits)
        remaining = survivors
        base += width
        if not remaining:
            # All faults detected; consuming further vectors changes
            # nothing, but the curve should still cover the full set when
            # no stop fraction was requested.
            break

    if stop_fraction is None:
        result.num_simulated = patterns.num_patterns
    else:
        result.num_simulated = base
    return result


def coverage_curve(circ: CompiledCircuit, faults: Sequence[Fault],
                   tests: _PatternBlock, chunk_size: int = 64,
                   backend: Union[str, FaultSimBackend, None] = None
                   ) -> List[int]:
    """The paper's ``nord(i)`` sequence for a test set, full length.

    ``tests`` may be single vectors or two-pattern pairs (with a matching
    fault model in ``faults``), like :func:`drop_simulate`.
    """
    result = drop_simulate(circ, faults, tests, chunk_size=chunk_size,
                           backend=backend)
    curve = result.coverage_curve()
    # drop_simulate may exit early when everything is detected; pad the
    # curve so it always has one entry per test vector.
    while len(curve) < tests.num_patterns:
        curve.append(curve[-1] if curve else 0)
    return curve
