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

The run always consumes the whole supplied set; it has no stop
fraction.  It powers the fault-coverage curves of generated test sets
(Figure 1), the per-test first-detection data behind the ``AVE`` metric
(Table 7) and redundancy removal.  It no longer selects ``U``:
:func:`repro.adi.sampling.select_u` walks its pool without dropping,
because the ADI computation needs those rows anyway.
:class:`DropSimResult` remains the record of first detections that a
``U`` selection carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.faults.model import Fault
from repro.faults.registry import PatternBlock as _PatternBlock
from repro.faults.registry import (
    query_detection_matrix as _query_detection_matrix,
)
from repro.fsim.backend import FaultSimBackend, resolve_backend

@dataclass
class DropSimResult:
    """Outcome of a fault-dropping run.

    ``num_simulated`` is the number of vectors the detections index:
    the whole supplied set for :func:`drop_simulate`, and ``N = |U|``
    for the record a :class:`repro.adi.sampling.USelection` carries.
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
    backend: Union[str, FaultSimBackend, None] = None,
) -> DropSimResult:
    """Simulate ``patterns`` in order with fault dropping.

    ``patterns`` may be a :class:`PatternSet` of stuck-at vectors or a
    :class:`PatternPairSet` of two-pattern transition tests (then
    ``faults`` must be transition faults); ``backend`` selects the
    fault-simulation engine used per chunk (see :mod:`repro.fsim.backend`).
    """
    result = DropSimResult(total_faults=len(faults),
                           num_simulated=patterns.num_patterns)
    if not faults:
        return result
    engine = resolve_backend(circ, backend)
    remaining: List[Fault] = list(faults)
    base = 0
    for chunk in patterns.chunks(chunk_size):
        # Per-chunk first detection, vectorized: one packed matrix query,
        # one lowest-set-bit reduction over its uint64 words, survivors
        # via row-any — no per-fault big-int scans.
        matrix = _query_detection_matrix(engine, chunk, remaining)
        first = matrix.first_set_bits()
        for row in np.flatnonzero(first >= 0):
            result.first_detection[remaining[row]] = base + int(first[row])
        remaining = [remaining[row] for row in np.flatnonzero(first < 0)]
        base += chunk.num_patterns
        if not remaining:
            # All faults detected; further vectors detect nothing new.
            break
    return result


def coverage_curve(circ: CompiledCircuit, faults: Sequence[Fault],
                   tests: _PatternBlock, chunk_size: int = 64,
                   backend: Union[str, FaultSimBackend, None] = None
                   ) -> List[int]:
    """The paper's ``nord(i)`` sequence for a test set, full length.

    ``tests`` may be single vectors or two-pattern pairs (with a matching
    fault model in ``faults``), like :func:`drop_simulate`.
    """
    # num_simulated is the whole set even when every fault drops early,
    # so the curve has one entry per test.
    return drop_simulate(circ, faults, tests, chunk_size=chunk_size,
                         backend=backend).coverage_curve()
