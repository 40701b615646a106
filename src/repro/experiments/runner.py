"""Shared experiment plumbing: a thin consumer of the flow facade.

Tables 5, 6 and 7 and Figure 1 all consume the *same* test-generation
runs (the paper reports different views of one experiment), so the runner
keeps one :class:`repro.flow.flow.Flow` per (circuit, fault model) and
lets the facade's staged memoization share every upstream artifact
between orders::

    circuit -> faults -> U selection -> ADI -> order -> test generation

Historically this module *was* a second implementation of that pipeline;
it is now only a mapping from the experiment harness's vocabulary
(circuit names, order names, the prepared-circuit bundles the table
modules consume) onto :class:`~repro.flow.flow.Flow` calls.  Every
stage method takes a ``fault_model`` argument; the transition-fault
experiment is the same calls with ``fault_model="transition"``.
Everything is deterministic given the runner's seed, and passing
``cache_dir`` persists every stage in the content-addressed artifact
cache so repeated table runs skip whole stages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from dataclasses import dataclass

from repro.adi import AdiResult, USelection
from repro.adi.metrics import CurveReport
from repro.atpg import TestGenResult
from repro.circuit.flatten import CompiledCircuit
from repro.experiments import suite
from repro.flow.cache import ArtifactCache
from repro.flow.config import (
    BackendSpec,
    CircuitSpec,
    FaultModelSpec,
    FlowConfig,
    TestGenSpec,
    USpec,
)
from repro.flow.flow import Flow
from repro.telemetry import span

#: Orders reported by the paper's Table 5, in column order.
TABLE5_ORDERS: Tuple[str, ...] = ("orig", "dynm", "0dynm", "incr0")

#: Orders plotted in Figure 1 / reported in Tables 6-7.
CURVE_ORDERS: Tuple[str, ...] = ("orig", "dynm", "0dynm")

#: Orders of the transition-fault experiment (same comparison shape).
TRANSITION_ORDERS: Tuple[str, ...] = ("orig", "dynm", "0dynm")


@dataclass
class PreparedCircuit:
    """Everything up to (and including) the ADI computation.

    ``faults`` is one fault model's collapsed target list; ``selection``
    holds ``U`` in that model's container (vectors or pairs).
    """

    circuit: CompiledCircuit
    faults: list
    selection: USelection
    adi: AdiResult

    @property
    def num_faults(self) -> int:
        """Size of the collapsed target fault list ``F``."""
        return len(self.faults)


class ExperimentRunner:
    """Memoizing driver for the whole experiment pipeline.

    ``fsim_backend`` names the fault-simulation engine every stage uses
    (``None`` — registry default, honouring ``REPRO_FSIM_BACKEND``);
    ``cache_dir`` attaches the content-addressed artifact cache
    (``None`` — in-memory memoization only, the historical behaviour).
    One :class:`~repro.flow.flow.Flow` per (circuit, fault model) does
    all the work; this class only translates the harness vocabulary.
    """

    def __init__(self, seed: int = 2005,
                 max_vectors: int = 10_000,
                 target_coverage: float = 0.90,
                 backtrack_limit: int = 200,
                 fsim_backend: Optional[str] = None,
                 cache_dir: Union[ArtifactCache, str, None] = None):
        self.seed = seed
        self.max_vectors = max_vectors
        self.target_coverage = target_coverage
        self.backtrack_limit = backtrack_limit
        self.fsim_backend = fsim_backend
        self._cache = cache_dir
        self._flows: Dict[Tuple[str, str], Flow] = {}
        self._prepared: Dict[Tuple[str, str], PreparedCircuit] = {}

    # -- the facade binding ---------------------------------------------------

    def flow(self, name: str, fault_model: str = "stuck_at") -> Flow:
        """The (cached) Flow for one suite circuit and fault model.

        Exposed so experiment code can reach facade features the legacy
        runner API does not surface (stage keys, provenance, artifacts).
        """
        key = (name, fault_model)
        if key not in self._flows:
            suite.suite_entry(name)  # unknown circuits fail loudly here
            config = FlowConfig(
                circuit=CircuitSpec(kind="suite", name=name),
                fault_model=FaultModelSpec(name=fault_model),
                u=USpec(max_vectors=self.max_vectors,
                        target_coverage=self.target_coverage),
                testgen=TestGenSpec(backtrack_limit=self.backtrack_limit),
                backend=BackendSpec(fsim=self.fsim_backend),
                seed=self.seed,
            )
            self._flows[key] = Flow(config, cache=self._cache)
        return self._flows[key]

    # -- pipeline stages ------------------------------------------------------

    def prepare(self, name: str,
                fault_model: str = "stuck_at") -> PreparedCircuit:
        """Circuit + faults + ``U`` + ADI for one suite circuit (cached)."""
        key = (name, fault_model)
        if key not in self._prepared:
            with span("experiment.prepare", circuit=name,
                      fault_model=fault_model):
                flow = self.flow(name, fault_model)
                self._prepared[key] = PreparedCircuit(
                    circuit=flow.circuit(),
                    faults=list(flow.faults()),
                    selection=flow.selection(),
                    adi=flow.adi(),
                )
        return self._prepared[key]

    def order_permutation(self, name: str, order: str,
                          fault_model: str = "stuck_at") -> List[int]:
        """The permutation a named order induces for one circuit."""
        return self.flow(name, fault_model).permutation(order)

    def testgen(self, name: str, order: str,
                fault_model: str = "stuck_at") -> TestGenResult:
        """Ordered test generation for (circuit, order), cached."""
        with span("experiment.testgen", circuit=name, order=order,
                  fault_model=fault_model):
            return self.flow(name, fault_model).tests(order)

    def curve(self, name: str, order: str,
              fault_model: str = "stuck_at") -> CurveReport:
        """Coverage curve of the generated test set, cached."""
        return self.flow(name, fault_model).report(order)

    # -- convenience -----------------------------------------------------------

    def orders_for(self, name: str,
                   requested: Sequence[str] = TABLE5_ORDERS) -> List[str]:
        """Filter orders the paper skips for the largest circuits."""
        entry = suite.suite_entry(name)
        return [
            order for order in requested
            if order != "incr0" or entry.run_incr0
        ]
