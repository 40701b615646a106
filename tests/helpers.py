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
