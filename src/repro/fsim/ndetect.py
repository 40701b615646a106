"""n-detection fault simulation.

A fault is simulated until it has been detected ``n`` times, then dropped.
The paper (Section 2) notes that ``ndet(u)`` — the number of faults each
vector detects — can be estimated with n-detection simulation instead of
full no-dropping simulation; this module provides that alternative
estimator, benchmarked as an ablation against the exact one.

All three entry points work on the packed
:class:`~repro.utils.detmatrix.DetectionMatrix` directly: counts are
vectorized row popcounts, ``ndet(u)`` a column sum, and the capped
variant a cumulative-sum mask over the dense bit matrix — the per-fault
``iter_bits`` loops this module used to run are gone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.faults.registry import query_detection_matrix
from repro.fsim.backend import FaultSimBackend, resolve_backend
from repro.sim.patterns import PatternSet

BackendArg = Union[str, FaultSimBackend, None]


def detection_counts(circ: CompiledCircuit, faults: Sequence[Fault],
                     patterns: PatternSet, n: Optional[int] = None,
                     backend: BackendArg = None) -> Dict[Fault, int]:
    """Per-fault detection counts, capped at ``n`` (uncapped when None)."""
    if n is not None and n < 1:
        raise SimulationError("n must be >= 1")
    matrix = query_detection_matrix(resolve_backend(circ, backend),
                                    patterns, faults)
    counts = matrix.row_popcounts()
    if n is not None:
        counts = np.minimum(counts, n)
    return {fault: int(count) for fault, count in zip(faults, counts)}


def ndet_per_vector(circ: CompiledCircuit, faults: Sequence[Fault],
                    patterns: PatternSet, n: Optional[int] = None,
                    backend: BackendArg = None) -> np.ndarray:
    """``ndet(u)`` for every vector ``u``.

    With ``n=None`` this is the paper's exact definition: simulation of
    all faults without dropping, counting for each vector how many faults
    it detects.  With an integer ``n``, each fault contributes only to its
    first ``n`` detecting vectors (n-detection estimate).
    """
    if n is not None and n < 1:
        raise SimulationError("n must be >= 1")
    matrix = query_detection_matrix(resolve_backend(circ, backend),
                                    patterns, faults)
    if n is None:
        return matrix.column_counts()
    width = patterns.num_patterns
    ndet = np.zeros(width, dtype=np.int64)
    if not len(faults) or not width:
        return ndet
    # A fault contributes to vector u iff bit u is set AND at most n-1
    # earlier bits are set: mask the dense bit rows by their cumsum.  A
    # running count never exceeds the width, so it fits the narrowest
    # dtype that holds the width, and each chunk's scratch dies in the
    # expression that reduces it.
    count = np.int16 if width < 1 << 15 else np.int32
    n = min(n, width)
    for __, bits in matrix.iter_dense_chunks():
        ndet += ((bits.cumsum(axis=1, dtype=count) <= n) & bits).sum(
            axis=0, dtype=np.int64)
    return ndet


def redundancy_candidates(circ: CompiledCircuit, faults: Sequence[Fault],
                          patterns: PatternSet,
                          backend: BackendArg = None) -> List[Fault]:
    """Faults never detected by ``patterns`` — candidates for ATPG/proofs.

    A helper for redundancy identification flows: random patterns weed out
    the easy faults so the expensive exhaustive ATPG only sees the rest.
    """
    matrix = query_detection_matrix(resolve_backend(circ, backend),
                                    patterns, faults)
    detected = matrix.any_rows()
    return [f for f, hit in zip(faults, detected) if not hit]
