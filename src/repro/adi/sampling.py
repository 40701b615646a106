"""Selection of the input-vector set ``U`` (paper Section 4).

The paper's procedure: start from 10 000 random input vectors, simulate
them with fault dropping, and keep only the first ``N`` vectors where
``N`` is the point at which approximately 90% of the circuit faults are
detected (or all 10 000 when 90% is never reached).  The accidental
detection indices are then computed over those ``N`` vectors only.

The optional ``prune_useless`` flag applies the paper's speed-up note:
vectors that detect no new fault during the dropping simulation can be
removed from ``U`` before the (more expensive) no-dropping simulation.

The dropping run consumes packed
:class:`~repro.utils.detmatrix.DetectionMatrix` chunks end to end (see
:func:`repro.fsim.dropping.drop_simulate`), so selecting ``U`` from a
10 000-vector pool is vectorized word arithmetic, not per-fault big-int
scans.

The procedure is fault-model-polymorphic: the candidate pool comes from
the fault-model registry (:mod:`repro.faults.registry`) — pass
``model="transition"`` (or any registered model name) for that model's
random pool, or supply a pool explicitly via ``patterns=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.registry import (
    FaultModel,
    PatternBlock,
    fault_model,
)
from repro.fsim.backend import FaultSimBackend
from repro.fsim.dropping import DropSimResult, drop_simulate
from repro.sim.patterns import PatternPairSet, PatternSet


@dataclass(frozen=True)
class USelection:
    """The selected vector set and how it was chosen.

    ``patterns`` holds the first ``N`` vectors — a :class:`PatternSet`
    for stuck-at targets, a :class:`PatternPairSet` of two-pattern tests
    for transition targets; ``detected_by_u`` is ``FU``, the subset of
    target faults detected by them, in target-list order.
    """

    patterns: PatternBlock
    detected_by_u: tuple
    dropped_sim: DropSimResult
    candidates_drawn: int

    @property
    def num_vectors(self) -> int:
        """``N = |U|`` — the paper's Table 4 "vec" column."""
        return self.patterns.num_patterns

    @property
    def coverage(self) -> float:
        """Fraction of target faults detected by ``U``."""
        return self.dropped_sim.coverage


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
    ``backend`` selects the fault-simulation engine for the dropping run.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise SimulationError("target_coverage must be in (0, 1]")
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

    result = drop_simulate(
        circ, faults, patterns,
        chunk_size=chunk_size,
        stop_fraction=target_coverage,
        backend=backend,
    )
    selected = patterns.take(result.num_simulated)

    if prune_useless and result.num_simulated:
        useful = sorted(set(result.first_detection.values()))
        remap = {old: new for new, old in enumerate(useful)}
        selected = selected.select(useful)
        result = DropSimResult(
            total_faults=result.total_faults,
            num_simulated=len(useful),
            first_detection={
                f: remap[idx] for f, idx in result.first_detection.items()
            },
        )

    detected = tuple(f for f in faults if f in result.first_detection)
    return USelection(
        patterns=selected,
        detected_by_u=detected,
        dropped_sim=result,
        candidates_drawn=patterns.num_patterns,
    )
