"""repro — reproduction of "The Accidental Detection Index as a Fault
Ordering Heuristic for Full-Scan Circuits" (Pomeranz & Reddy, DATE 2005).

The package layers a complete combinational test-generation stack:

* :mod:`repro.circuit`  — netlists, ``.bench`` I/O, compilation, synthetic
  benchmark generation, full-scan extraction, redundancy removal;
* :mod:`repro.sim`      — bit-parallel and 3-valued logic simulation;
* :mod:`repro.faults`   — stuck-at faults, universe, equivalence collapsing;
* :mod:`repro.fsim`     — fault simulation (serial, PPSFP, n-detect);
* :mod:`repro.atpg`     — SCOAP, PODEM, the ordered test-generation engine;
* :mod:`repro.adi`      — the paper's contribution: the accidental
  detection index and the fault orders built on it, plus the coverage
  curves and AVE that measure them;
* :mod:`repro.flow`     — the stable public facade: declarative
  :class:`~repro.flow.config.FlowConfig`, the staged
  :class:`~repro.flow.flow.Flow` object, the content-addressed artifact
  cache and the ``repro`` CLI (``python -m repro``);
* :mod:`repro.experiments` — harnesses regenerating every table and figure
  (thin consumers of the flow facade).

Quickstart::

    from repro.flow import Flow, FlowConfig, CircuitSpec, OrderSpec

    config = FlowConfig(
        circuit=CircuitSpec(kind="suite", name="irs208"),
        order=OrderSpec(name="0dynm"),
        seed=2005,
    )
    result = Flow(config, cache="results/cache").run()
    print(result.tests.num_tests, result.report.ave)

The underlying callables (``select_u``, ``compute_adi``, ``ORDERS``,
``generate_tests``…) remain public for piecemeal use; the facade only
composes them.
"""

from repro import (
    adi,
    atpg,
    circuit,
    diagnosis,
    experiments,
    faults,
    flow,
    fsim,
    sim,
    utils,
)
from repro.errors import (
    AtpgError,
    BenchParseError,
    CircuitStructureError,
    ExperimentError,
    FaultModelError,
    ReproError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "AtpgError",
    "BenchParseError",
    "CircuitStructureError",
    "ExperimentError",
    "FaultModelError",
    "ReproError",
    "SimulationError",
    "__version__",
    "adi",
    "atpg",
    "circuit",
    "diagnosis",
    "experiments",
    "faults",
    "flow",
    "fsim",
    "sim",
    "utils",
]
