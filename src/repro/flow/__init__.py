"""The stable public flow API: declarative configs, one pipeline object.

This package is the versioned facade over the whole ADI pipeline::

    from repro.flow import Flow, FlowConfig, CircuitSpec, OrderSpec

    config = FlowConfig(
        circuit=CircuitSpec(kind="suite", name="irs208"),
        order=OrderSpec(name="0dynm"),
        seed=2005,
    )
    result = Flow(config, cache="results/cache").run()
    print(result.tests.num_tests, result.report.ave)

Pieces:

* :mod:`repro.flow.config` — the frozen, JSON-round-trippable
  :class:`FlowConfig` dataclass tree (one spec per pipeline stage);
* :mod:`repro.flow.flow` — the staged, memoizing :class:`Flow` facade,
  dispatching through the fault-model registry
  (:mod:`repro.faults.registry`);
* :mod:`repro.flow.cache` — the content-addressed
  :class:`ArtifactCache` that makes warm re-runs skip every stage;
* :mod:`repro.flow.serialize` — JSON codecs for every stage artifact;
* :mod:`repro.flow.server` — the concurrent flow HTTP service
  (``repro serve``), with single-flight request dedupe
  (:mod:`repro.flow.dedupe`);
* :mod:`repro.flow.cli` — the ``repro`` command-line entry point
  (``python -m repro``).
"""

from repro.flow.cache import (
    ArtifactCache,
    CACHE_FORMAT_VERSION,
    default_cache_root,
    stable_hash,
    stage_key,
)
from repro.flow.config import (
    AdiSpec,
    BackendSpec,
    CONFIG_VERSION,
    CircuitSpec,
    FaultModelSpec,
    FlowConfig,
    OrderSpec,
    TestGenSpec,
    USpec,
)
from repro.flow.dedupe import InflightTable
from repro.flow.flow import (
    Flow,
    FlowResult,
    StageInfo,
    build_circuit_from_spec,
)
from repro.flow.server import FlowServer

__all__ = [
    "AdiSpec",
    "ArtifactCache",
    "BackendSpec",
    "CACHE_FORMAT_VERSION",
    "CONFIG_VERSION",
    "CircuitSpec",
    "FaultModelSpec",
    "Flow",
    "FlowConfig",
    "FlowResult",
    "FlowServer",
    "InflightTable",
    "OrderSpec",
    "StageInfo",
    "TestGenSpec",
    "USpec",
    "build_circuit_from_spec",
    "default_cache_root",
    "stable_hash",
    "stage_key",
]
