"""The fault-model registry: one pluggable description per fault model.

The ADI pipeline is fault-model-polymorphic — the paper's argument only
needs a notion of "vector set" and "detection word", not a specific
defect mechanism.  Historically that polymorphism lived in scattered
``isinstance`` checks on the pattern container; this module centralizes
it, mirroring the engine registry of :mod:`repro.fsim.backend`: a
:class:`FaultModel` bundles everything a pipeline stage needs to know
about one model —

* how to enumerate and structurally collapse its fault universe;
* which pattern container carries its tests (:class:`PatternSet` for
  single vectors, :class:`PatternPairSet` for launch/capture pairs) and
  how to draw a random candidate pool of them;
* how to stage a block into a fault-simulation backend and query its
  packed detection matrix (the stuck-at vs. two-pattern half of the
  engine contract);
* its test-generation step on the one ordered loop;
* a JSON codec for individual faults (artifact caching).

``stuck_at`` and ``transition`` register here at import time; adding a
future model (e.g. bridging) means registering one new
:class:`FaultModel` — ``compute_adi``, ``select_u``, ``coverage_curve``,
the fault orders, the :class:`repro.flow.flow.Flow` facade and the CLI
all dispatch through this registry and pick it up unchanged.

The block-to-engine dispatch (:data:`PatternBlock`,
:func:`query_detection_matrix`) lives here: it is the one place a
pipeline stage queries an engine, and the one place the
``fsim.detection_matrix`` span is opened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Union

from repro.errors import FaultModelError
from repro.faults.collapse import collapsed_fault_list
from repro.faults.model import Fault
from repro.faults.transition import (
    TransitionFault,
    transition_fault_list,
    transition_universe,
)
from repro.faults.universe import full_universe
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.telemetry import span
from repro.utils.detmatrix import DetectionMatrix

#: A simulatable block of tests: single vectors, or two-pattern
#: (launch, capture) pairs — every pipeline stage is polymorphic over
#: both, dispatching through :func:`model_for_block`.
PatternBlock = Union[PatternSet, PatternPairSet]


@dataclass(frozen=True)
class FaultModel:
    """Everything the pipeline needs to know about one fault model.

    The callables deliberately have the narrowest useful signatures so
    that registering a model never forces importing heavy machinery:

    ``universe(circ)`` / ``collapse(circ)``
        Full and structurally collapsed fault lists, in deterministic
        (topological) order — the model's ``Forig``.
    ``random_pool(num_inputs, count, seed)``
        A random candidate pool of ``count`` tests in the model's
        container type (the raw material of ``U`` selection).
    ``load(engine, block)`` / ``query(engine, faults)``
        Stage a block into a :class:`repro.fsim.backend.FaultSimBackend`
        and answer its packed
        :class:`repro.utils.detmatrix.DetectionMatrix` — the stuck-at
        half of the engine contract for single vectors, the two-pattern
        half for pairs.
    ``testgen(circ, ordered_faults, config)``
        The model's step on the one ordered fault-dropping loop
        (:func:`repro.atpg.engine.generate_tests` or
        :func:`repro.atpg.transition.generate_transition_tests`);
        implementations import lazily to keep the registry import-light.
    ``fault_to_json(fault)`` / ``fault_from_json(data)``
        A stable JSON codec for one fault, used by the artifact cache.
    """

    name: str
    fault_type: type
    container_type: type
    universe: Callable
    collapse: Callable
    random_pool: Callable
    load: Callable
    query: Callable
    testgen: Callable
    fault_to_json: Callable
    fault_from_json: Callable

    def target_faults(self, circ, collapse: bool = True) -> list:
        """The model's target list ``F``: collapsed by default."""
        return list(self.collapse(circ) if collapse else self.universe(circ))


_REGISTRY: Dict[str, FaultModel] = {}


def register_fault_model(model: FaultModel, replace: bool = False) -> None:
    """Register a fault model under its ``name``.

    Third-party models plug in here; ``replace=True`` allows overriding a
    built-in (used by tests to stub models).
    """
    if not replace and model.name in _REGISTRY:
        raise FaultModelError(
            f"fault model {model.name!r} already registered"
        )
    _REGISTRY[model.name] = model


def available_fault_models() -> List[str]:
    """Registered fault-model names, sorted."""
    return sorted(_REGISTRY)


def fault_model(name: Union[str, FaultModel]) -> FaultModel:
    """Look up a fault model by name (instances pass through).

    Unknown names raise :class:`repro.errors.FaultModelError` listing the
    registered models, so a typo in a config fails loudly at resolution
    time rather than as a ``KeyError`` deep in a pipeline.
    """
    if isinstance(name, FaultModel):
        return name
    model = _REGISTRY.get(name)
    if model is None:
        raise FaultModelError(
            f"unknown fault model {name!r}; "
            f"available: {available_fault_models()}"
        )
    return model


def model_for_block(block: PatternBlock) -> FaultModel:
    """Dispatch on a pattern container: the model whose tests it holds.

    This one lookup replaces the historical ``isinstance`` checks in
    ``compute_adi`` / ``select_u`` / ``coverage_curve``; an unknown
    container type raises :class:`repro.errors.FaultModelError` naming
    the registered containers.
    """
    for model in _REGISTRY.values():
        if isinstance(block, model.container_type):
            # PatternPairSet is not a PatternSet subclass (and vice
            # versa), so the first match is the only match.
            return model
    raise FaultModelError(
        f"no registered fault model consumes pattern blocks of type "
        f"{type(block).__name__}; registered containers: "
        f"{sorted(m.container_type.__name__ for m in _REGISTRY.values())}"
    )


def query_detection_matrix(engine, block: PatternBlock,
                           faults: Sequence) -> DetectionMatrix:
    """Load ``block`` into ``engine`` and query the packed matrix.

    Dispatches through the registry on the block type: a
    :class:`PatternPairSet` routes to the engine's two-pattern transition
    contract, a :class:`PatternSet` to the plain stuck-at contract.  This
    one switch makes every consumer built on blocks of patterns (test
    generation, ``U`` selection, coverage curves, ADI, dictionaries)
    work for every registered fault model.  The load and the query are
    recorded as one ``fsim.detection_matrix`` span, labelled with the
    block's width (``patterns``) and the queried fault count.
    """
    model = model_for_block(block)
    with span("fsim.detection_matrix", backend=engine.name,
              faults=len(faults), model=model.name,
              patterns=block.num_patterns):
        model.load(engine, block)
        return model.query(engine, faults)


# -- built-in models ----------------------------------------------------------

def _stuck_at_tests(circ, ordered_faults, config=None):
    """Lazy forwarder to :func:`repro.atpg.engine.generate_tests`."""
    from repro.atpg.engine import generate_tests

    return generate_tests(circ, ordered_faults, config)


def _transition_tests(circ, ordered_faults, config=None):
    """Lazy forwarder to :func:`~repro.atpg.transition.generate_transition_tests`."""
    from repro.atpg.transition import generate_transition_tests

    return generate_transition_tests(circ, ordered_faults, config)


def _stuck_at_from_json(data) -> Fault:
    node, pin, value = data
    return Fault(int(node), int(pin), int(value))


def _transition_from_json(data) -> TransitionFault:
    node, pin, rise = data
    return TransitionFault(int(node), int(pin), int(rise))


STUCK_AT = FaultModel(
    name="stuck_at",
    fault_type=Fault,
    container_type=PatternSet,
    universe=full_universe,
    collapse=collapsed_fault_list,
    random_pool=lambda num_inputs, count, seed: PatternSet.random(
        num_inputs, count, seed=seed
    ),
    load=lambda engine, block: engine.load(block),
    query=lambda engine, faults: engine.detection_matrix(faults),
    testgen=_stuck_at_tests,
    fault_to_json=lambda f: [f.node, f.pin, f.value],
    fault_from_json=_stuck_at_from_json,
)

TRANSITION = FaultModel(
    name="transition",
    fault_type=TransitionFault,
    container_type=PatternPairSet,
    universe=transition_universe,
    collapse=transition_fault_list,
    random_pool=lambda num_inputs, count, seed: PatternPairSet.random(
        num_inputs, count, seed=seed
    ),
    load=lambda engine, block: engine.load_pairs(block),
    query=lambda engine, faults: engine.transition_detection_matrix(faults),
    testgen=_transition_tests,
    fault_to_json=lambda f: [f.node, f.pin, f.rise],
    fault_from_json=_transition_from_json,
)

register_fault_model(STUCK_AT)
register_fault_model(TRANSITION)
