"""Computation of the accidental detection index (paper Section 2).

Definitions, for a target fault set ``F`` and vector set ``U``:

* ``FU``       — the subset of ``F`` detected by ``U``;
* ``D(f)``     — the vectors of ``U`` that detect ``f`` (no dropping);
* ``ndet(u)``  — the number of faults of ``FU`` that vector ``u`` detects;
* ``ADI(f)``   — ``min { ndet(u) : u in D(f) }`` for ``f in FU`` (the
  conservative estimate of how many faults a test generated for ``f``
  will detect), and 0 for ``f`` not detected by ``U``.

``AdiMode.AVERAGE`` implements the paper's mentioned alternative: the
average of ``ndet(u)`` over ``D(f)`` instead of the minimum (rounded
down to keep indices integral).

The computation is **fault-model-polymorphic**: the "vectors" ``u`` may
be single input vectors detecting stuck-at faults, or two-pattern
launch/capture pairs detecting transition faults — the accidental
detection argument is identical, only the detection-word query changes.
:func:`compute_adi` dispatches on the pattern container
(:class:`PatternSet` vs :class:`repro.sim.patterns.PatternPairSet`), and
every order built on :class:`AdiResult` works for both models unchanged.

Implementation notes: detection sets come from a fault-simulation
backend (:mod:`repro.fsim.backend` — ``backend=`` picks the engine) as
one packed ``uint64`` :class:`~repro.utils.detmatrix.DetectionMatrix`,
the only form an :class:`AdiResult` holds: ``ndet`` is a vectorized
column popcount-sum, ``ADI`` a masked row reduction — no per-fault
Python loops anywhere.  Consumers that want another view (the dynamic
orders' row and column big-ints, the cache codec's hex rows) derive it
from :attr:`AdiResult.matrix` themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.registry import PatternBlock, query_detection_matrix
from repro.fsim.backend import FaultSimBackend, resolve_backend
from repro.utils.detmatrix import DetectionMatrix


class AdiMode(Enum):
    """How ``ADI(f)`` summarizes ``ndet`` over ``D(f)``."""

    MINIMUM = "minimum"
    AVERAGE = "average"


#: A target fault of either model: :class:`repro.faults.model.Fault`
#: (stuck-at) or :class:`repro.faults.transition.TransitionFault`.
TargetFault = Union["Fault", "TransitionFault"]


@dataclass
class AdiResult:
    """ADI data for one circuit / fault list / vector set.

    All per-fault arrays are indexed by the *position* of the fault in
    the supplied target list (its original order).  ``faults`` holds
    whichever fault model was supplied (stuck-at or transition); nothing
    downstream of the detection matrix depends on the model.

    ``matrix`` is the defining data — the packed detection sets; row
    ``i`` is ``D(f)`` of fault ``i``.
    """

    faults: Tuple[TargetFault, ...]
    num_vectors: int
    matrix: DetectionMatrix
    ndet: np.ndarray
    adi: np.ndarray
    mode: AdiMode
    # The dynamic orders' placement sequence, filled by repro.adi.dynamic.
    _placements: Optional[Tuple[Tuple[int, int], ...]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def detected_indices(self) -> List[int]:
        """Positions of faults in ``FU`` (non-empty detection set)."""
        return np.flatnonzero(self.matrix.any_rows()).tolist()

    @property
    def undetected_indices(self) -> List[int]:
        """Positions of faults with ``ADI = 0`` (not detected by ``U``)."""
        return np.flatnonzero(~self.matrix.any_rows()).tolist()

    def adi_min_max(self) -> Tuple[int, int]:
        """(ADImin, ADImax) over detected faults only — Table 4 columns.

        Returns (0, 0) when ``U`` detects nothing.
        """
        detected = self.adi[self.matrix.any_rows()]
        if not detected.size:
            return (0, 0)
        return (int(detected.min()), int(detected.max()))

    def adi_ratio(self) -> float:
        """ADImax / ADImin — the paper's Table 4 spread indicator."""
        lo, hi = self.adi_min_max()
        return hi / lo if lo else float("inf") if hi else 0.0


def compute_adi(
    circ: CompiledCircuit,
    faults: Sequence[TargetFault],
    patterns: PatternBlock,
    mode: AdiMode = AdiMode.MINIMUM,
    backend: Union[str, FaultSimBackend, None] = None,
    matrix: Optional[DetectionMatrix] = None,
) -> AdiResult:
    """Compute ADI for every fault of ``faults`` over ``patterns``.

    This is the no-dropping simulation of ``FU`` under ``U`` that Section
    2 prescribes (faults undetected by ``U`` simply end up with an empty
    detection set and ``ADI = 0``).

    ``patterns`` is either a :class:`PatternSet` of single vectors (then
    ``faults`` are stuck-at faults) or a :class:`PatternPairSet` of
    two-pattern transition tests (then ``faults`` are transition faults);
    ``backend`` selects the fault-simulation engine (name, instance, or
    ``None`` for the registry default); the detection sets stay packed
    end to end.

    ``matrix``, when given, is that simulation already done — the rows
    :func:`repro.adi.sampling.select_u` kept as
    :attr:`~repro.adi.sampling.USelection.matrix` — and is used in place
    of a query once its shape matches ``faults`` by ``patterns``.
    """
    if patterns.num_inputs != circ.num_inputs:
        raise SimulationError(
            f"pattern set has {patterns.num_inputs} inputs, "
            f"circuit has {circ.num_inputs}"
        )
    if matrix is None:
        engine = resolve_backend(circ, backend)
        matrix = query_detection_matrix(engine, patterns, faults)
    elif (matrix.num_faults != len(faults)
            or matrix.num_patterns != patterns.num_patterns):
        raise SimulationError(
            f"detection matrix is {matrix.num_faults} faults x "
            f"{matrix.num_patterns} patterns, expected {len(faults)} x "
            f"{patterns.num_patterns}"
        )
    return adi_from_detection_matrix(faults, matrix, mode)


def adi_from_detection_matrix(
    faults: Sequence[TargetFault],
    matrix: DetectionMatrix,
    mode: AdiMode = AdiMode.MINIMUM,
) -> AdiResult:
    """Build an :class:`AdiResult` from a packed detection matrix.

    The whole computation is vectorized over the packed words: ``ndet``
    is the column popcount-sum of the matrix, ``ADI`` a masked min/mean
    reduction over row-expanded ``ndet`` values (chunked so the dense
    scratch stays bounded regardless of problem size).
    """
    if len(faults) != matrix.num_faults:
        raise SimulationError(
            f"{len(faults)} faults but detection matrix has "
            f"{matrix.num_faults} rows"
        )
    n = matrix.num_patterns
    ndet = matrix.column_counts()
    adi = np.zeros(len(faults), dtype=np.int64)

    if len(faults) and n:
        for start, raw_bits in matrix.iter_dense_chunks():
            bits = raw_bits.astype(bool)
            detected = bits.any(axis=1)
            if mode == AdiMode.MINIMUM:
                # The int64 scratch dies here, before the next chunk's.
                values = np.where(bits, ndet[None, :],
                                  np.iinfo(np.int64).max).min(axis=1)
            else:
                sums = bits @ ndet
                counts = bits.sum(axis=1)
                safe = np.maximum(counts, 1)
                # Matches int(values.mean()): float division of exact
                # integer sums, truncated toward zero.
                values = (sums.astype(np.float64)
                          / safe).astype(np.int64)
            adi[start:start + bits.shape[0]] = np.where(detected, values, 0)

    return AdiResult(
        faults=tuple(faults),
        num_vectors=n,
        matrix=matrix,
        ndet=ndet,
        adi=adi,
        mode=mode,
    )


def ndet_table(result: AdiResult) -> Dict[int, int]:
    """``u -> ndet(u)`` mapping (the paper's Table 1 content)."""
    return {u: int(result.ndet[u]) for u in range(result.num_vectors)}
