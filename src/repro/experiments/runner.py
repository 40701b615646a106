"""Shared experiment plumbing: one :class:`~repro.flow.flow.Flow` per circuit.

Tables 4 to 7, Figure 1 and the transition experiment are views of one
experiment (the paper reports different views of the same
test-generation runs), so the runner hands out one memoized Flow per
(circuit, fault model) and the facade's staged memoization shares every
upstream artifact between orders and tables::

    circuit -> faults -> U selection -> ADI -> order -> test generation

Each Flow runs ``FlowConfig(seed=seed)`` on one suite circuit: 10,000
vectors, 0.90 coverage, 200 backtracks, the default fault-simulation
engine (``REPRO_FSIM_BACKEND`` picks another) and no disk cache.  The
transition-fault experiment is the same calls on the Flow for
``fault_model="transition"``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments import suite
from repro.flow.config import CircuitSpec, FaultModelSpec, FlowConfig
from repro.flow.flow import Flow

#: Orders reported by the paper's Table 5, in column order.
TABLE5_ORDERS: Tuple[str, ...] = ("orig", "dynm", "0dynm", "incr0")

#: Orders of Figure 1, Tables 6-7 and the transition experiment.
CURVE_ORDERS: Tuple[str, ...] = ("orig", "dynm", "0dynm")


class ExperimentRunner:
    """Hands out one memoized Flow per suite circuit and fault model."""

    def __init__(self, seed: int = 2005):
        self.seed = seed
        self._flows: Dict[Tuple[str, str], Flow] = {}

    def flow(self, name: str, fault_model: str = "stuck_at") -> Flow:
        """The Flow of one suite circuit under one fault model."""
        key = (name, fault_model)
        if key not in self._flows:
            suite.suite_entry(name)  # unknown circuits fail loudly here
            self._flows[key] = Flow(FlowConfig(
                circuit=CircuitSpec(kind="suite", name=name),
                fault_model=FaultModelSpec(name=fault_model),
                seed=self.seed,
            ))
        return self._flows[key]
