"""Selection of the input-vector set ``U`` (paper Section 4).

The paper's procedure: start from 10 000 random input vectors, simulate
them with fault dropping, and keep only the first ``N`` vectors where
``N`` is the point at which approximately 90% of the circuit faults are
detected (or all 10 000 when 90% is never reached).  The accidental
detection indices are then computed over those ``N`` vectors only, by a
second, no-dropping simulation (Section 2).

This module selects the same ``U`` without a dropping run.  A fault's
first detecting vector is the lowest set bit of its no-dropping
detection row, so walking the candidate pool in no-dropping blocks
yields every first detection the dropping run would, and ``N`` is the
target-th smallest of them plus one — exactly where a one-vector-at-a-
time dropping run crosses the target.  Those first detections, cut to
``N``, are :attr:`USelection.first_detection`.  The walk keeps the
block rows: cut to ``N`` columns they *are* the no-dropping detection
matrix of ``U``, which :attr:`USelection.matrix` hands to
:func:`repro.adi.index.compute_adi`, so a cold flow simulates each
vector of ``U`` once instead of twice.

Every block is one packed query over the whole target list, a whole
number of 64-bit words wide.  The first block is ``chunk_size`` rounded
up to whole words.  Each later block doubles, capped at twice the
patterns the previous block's first-detection rate says the target
still needs, so the walk overshoots ``N`` by little; a block that would
leave less than twice its width unsimulated takes the rest of the pool.
The schedule decides only the cost of the walk, never its result.

The optional ``prune_useless`` flag applies the paper's speed-up note:
vectors that detect no fault first are removed from ``U`` (and their
columns from the matrix) before the ADI computation.

The procedure is fault-model-polymorphic: the candidate pool comes from
the fault-model registry (:mod:`repro.faults.registry`) — pass
``model="transition"`` (or any registered model name) for that model's
random pool, or supply a pool explicitly via ``patterns=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.registry import (
    FaultModel,
    PatternBlock,
    fault_model,
    query_detection_matrix,
)
from repro.fsim.backend import FaultSimBackend, resolve_backend
from repro.utils.detmatrix import DetectionMatrix

#: Patterns per packed detection word: the unit of a block's width.
_WORD = 64


@dataclass(frozen=True)
class USelection:
    """The selected vector set and how it was chosen.

    ``patterns`` holds the first ``N`` vectors — a :class:`PatternSet`
    for stuck-at targets, a :class:`PatternPairSet` of two-pattern tests
    for transition targets.  ``first_detection[i]`` is the index into
    ``patterns`` of the first vector that detects target fault ``i``, or
    ``-1`` when ``U`` does not detect it; the detected ones are ``FU``.

    ``matrix`` is the no-dropping detection matrix of the target list
    over ``patterns`` when this selection was computed (``None`` when it
    was decoded from a cache); it is a by-product, not part of the
    selection's identity, and is never serialized.
    """

    patterns: PatternBlock
    first_detection: Tuple[int, ...]
    candidates_drawn: int
    matrix: Optional[DetectionMatrix] = field(
        default=None, compare=False, repr=False)

    @property
    def num_vectors(self) -> int:
        """``N = |U|`` — the paper's Table 4 "vec" column."""
        return self.patterns.num_patterns

    @property
    def coverage(self) -> float:
        """Fraction of target faults detected by ``U`` (1.0 for none)."""
        if not self.first_detection:
            return 1.0
        detected = sum(vec >= 0 for vec in self.first_detection)
        return detected / len(self.first_detection)


def select_u(
    circ: CompiledCircuit,
    faults: Sequence,
    seed: int = 0,
    max_vectors: int = 10_000,
    target_coverage: float = 0.90,
    chunk_size: int = 64,
    prune_useless: bool = False,
    patterns: Optional[PatternBlock] = None,
    backend: "str | FaultSimBackend | None" = None,
    model: Union[str, FaultModel, None] = None,
) -> USelection:
    """Choose ``U`` by the paper's truncated random-simulation procedure.

    The candidate pool comes from the fault-model registry: ``model``
    names the registered fault model whose random pool to draw
    (``"stuck_at"`` by default).  ``patterns`` overrides the pool entirely
    (used by the worked example, which supplies the 16 exhaustive vectors
    of ``lion``) and must then match the chosen model's container type.
    ``backend`` selects the fault-simulation engine for the walk;
    ``chunk_size`` sets only the width of its first block.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise SimulationError("target_coverage must be in (0, 1]")
    if chunk_size < 1:
        raise SimulationError("chunk size must be positive")
    resolved = fault_model(model) if model is not None else None
    if (patterns is not None and resolved is not None
            and not isinstance(patterns, resolved.container_type)):
        # An explicit pool is authoritative; fail here, with the model
        # named, instead of deep inside the backend.
        raise SimulationError(
            f"fault model {resolved.name!r} expects a candidate pool of "
            f"type {resolved.container_type.__name__}, got "
            f"{type(patterns).__name__}"
        )
    if patterns is None:
        pool_model = resolved if resolved is not None else fault_model("stuck_at")
        patterns = pool_model.random_pool(circ.num_inputs, max_vectors, seed)
    elif patterns.num_inputs != circ.num_inputs:
        raise SimulationError(
            f"candidate pool has {patterns.num_inputs} inputs, "
            f"circuit has {circ.num_inputs}"
        )

    target = _target_count(len(faults), target_coverage)
    first, matrix = _walk(resolve_backend(circ, backend), faults, patterns,
                          target, chunk_size)
    found = np.sort(first[first >= 0])
    if not target:
        count = 0
    elif found.size >= target:
        count = int(found[target - 1]) + 1
    else:
        count = patterns.num_patterns
    first[first >= count] = -1
    selected = patterns.take(count)
    matrix = matrix.take_patterns(count)

    if prune_useless and count:
        useful = np.unique(first[first >= 0])
        selected = selected.select(useful.tolist())
        matrix = matrix.select_patterns(useful)
        hit = first >= 0
        first[hit] = np.searchsorted(useful, first[hit])

    return USelection(
        patterns=selected,
        first_detection=tuple(first.tolist()),
        candidates_drawn=patterns.num_patterns,
        matrix=matrix,
    )


def _target_count(total: int, fraction: float) -> int:
    """Smallest detected count ``d`` with ``d / total >= fraction`` — the
    comparison :attr:`USelection.coverage` makes (0 for no faults)."""
    if not total:
        return 0
    target = int(total * fraction)
    while target / total < fraction:
        target += 1
    return target


def _whole_words(count: int) -> int:
    """``count`` patterns rounded up to whole packed words."""
    return -(-count // _WORD) * _WORD


def _walk(engine: FaultSimBackend, faults: Sequence, pool: PatternBlock,
          target: int, chunk_size: int
          ) -> Tuple[np.ndarray, DetectionMatrix]:
    """Simulate ``pool`` in no-dropping blocks until ``target`` faults
    have a first detection or the pool runs out.

    Returns each fault's first detecting vector (``-1`` for none) and
    the block rows side by side over the simulated prefix.
    """
    size = pool.num_patterns
    first = np.full(len(faults), -1, dtype=np.int64)
    blocks: List[DetectionMatrix] = []
    start = detected = 0
    width = _whole_words(chunk_size)
    while start < size and detected < target:
        if size - start - width < 2 * width:
            width = size - start
        block = query_detection_matrix(
            engine, pool.slice(start, start + width), faults)
        blocks.append(block)
        local = block.first_set_bits()
        new = (first < 0) & (local >= 0)
        first[new] = start + local[new]
        hits = int(np.count_nonzero(new))
        detected += hits
        start += width
        cap = 2 * width
        if hits:
            # At this block's rate the target needs about
            # (target - detected) * width / hits more patterns.
            cap = min(cap, _whole_words(
                -(-2 * (target - detected) * width // hits)))
        width = max(cap, _WORD)
    return first, DetectionMatrix.concat_patterns(blocks, len(faults))
