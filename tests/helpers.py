"""Importable test helpers (not fixtures).

Test modules import :func:`generated_circuit` from here rather than from
``conftest`` — conftest modules are imported by pytest under the bare
module name ``conftest``, so ``from conftest import ...`` silently binds
to whichever conftest (tests/ or benchmarks/) was imported first.  A
dedicated helper module has an unambiguous name.
"""

from __future__ import annotations

from repro.circuit import GeneratorSpec, generate_circuit


def generated_circuit(seed: int, num_inputs: int = 8, num_gates: int = 40,
                      num_outputs: int = 5, hardness: float = 0.05):
    """Deterministic small synthetic circuit for randomized tests."""
    spec = GeneratorSpec(
        name=f"gen{seed}",
        num_inputs=num_inputs,
        num_gates=num_gates,
        num_outputs=num_outputs,
        seed=seed,
        hardness=hardness,
    )
    return generate_circuit(spec)


def engine_words(circ, faults, block, backend: str) -> list:
    """Detection words of ``faults`` from one engine's word query.

    A :class:`~repro.sim.patterns.PatternPairSet` goes through
    ``load_pairs`` / ``transition_detection_words``, a
    :class:`~repro.sim.patterns.PatternSet` through ``load`` /
    ``detection_words``.
    """
    from repro.fsim.backend import create_backend
    from repro.sim.patterns import PatternPairSet

    engine = create_backend(circ, backend)
    if isinstance(block, PatternPairSet):
        engine.load_pairs(block)
        return engine.transition_detection_words(faults)
    engine.load(block)
    return engine.detection_words(faults)



def naive_drop(circ, faults, patterns, stop_fraction=None):
    """One-vector-at-a-time fault dropping: the reference for
    :func:`repro.adi.metrics.coverage_curve` and the ``U`` walk.

    Applies ``patterns`` (single vectors, or two-pattern pairs for
    transition faults) one at a time through the serial simulator and
    drops each fault at its first detecting vector.  With
    ``stop_fraction``, stops after the first vector whose detections
    reach that fraction of ``faults``.  Returns ``(first, consumed)``:
    fault -> first detecting vector, and the vectors applied.
    """
    from repro.fsim.serial import detects_serial
    from repro.sim.bitsim import simulate_vector
    from repro.sim.patterns import PatternPairSet

    def detects(p, fault):
        if not isinstance(patterns, PatternPairSet):
            return detects_serial(circ, patterns.vector(p), fault)
        # The full-scan reduction: v1 sets the fault line to the
        # transition's initial value and v2 detects the stuck-at fault.
        launch, capture = patterns.pair(p)
        good = simulate_vector(circ, launch)
        line = (fault.node if fault.is_stem
                else circ.fanin[fault.node][fault.pin])
        return ((good[line] & 1) == (0 if fault.rise else 1)
                and detects_serial(circ, capture, fault.as_stuck_at()))

    remaining = list(faults)
    first = {}
    for p in range(patterns.num_patterns):
        for fault in remaining:
            if detects(p, fault):
                first[fault] = p
        remaining = [f for f in remaining if f not in first]
        if (stop_fraction is not None
                and len(first) / len(faults) >= stop_fraction):
            return first, p + 1
    return first, patterns.num_patterns


def first_by_position(faults, first):
    """``naive_drop``'s ``{fault: vector}`` as a tuple over ``faults``,
    with ``-1`` for an undetected fault (``USelection.first_detection``)."""
    return tuple(first.get(fault, -1) for fault in faults)
