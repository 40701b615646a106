"""Fault simulation engines: serial oracle, PPSFP, fanout-free regions,
sharding, dropping, n-detection — and the backend registry that fronts them.

Hot-path consumers (ADI, dropping, ATPG, dictionaries) select an engine
through :mod:`repro.fsim.backend`: ``bigint`` (event-driven big-int
PPSFP), ``numpy`` (fanout-free regions over ``uint64`` words,
:mod:`repro.fsim.npfsim`), ``auto`` (threshold dispatch between those
two, the default) or the opt-in ``parallel`` (sharded multi-core over
worker processes, :mod:`repro.fsim.sharded`).  Set
``REPRO_FSIM_BACKEND`` or pass ``backend=`` to switch the whole
pipeline; the name alone configures the engine.

Every engine derives from :class:`FaultSimBackend` and supplies only its
block staging and one stuck-at query; the base class gives every engine
both fault models: single-vector blocks detect stuck-at faults
(``load`` / ``detection_matrix``), two-pattern launch/capture blocks
detect transition faults (``load_pairs`` /
``transition_detection_matrix``, the reduction of
:mod:`repro.fsim.transition`).  Pipeline stages query through
:func:`repro.faults.registry.query_detection_matrix`.
"""

from repro.fsim.backend import (
    BACKEND_ENV_VAR,
    AutoFaultSim,
    FaultSimBackend,
    available_backends,
    create_backend,
    default_backend_name,
    register_backend,
    resolve_backend,
)
from repro.fsim.sharded import (
    SHARDS_ENV_VAR,
    ShardedFaultSim,
    plan_shards,
)
from repro.fsim.dropping import (
    DropSimResult,
    coverage_curve,
    drop_simulate,
)
from repro.fsim.ndetect import detection_counts, ndet_per_vector, redundancy_candidates
from repro.fsim.npfsim import NumpyFaultSim
from repro.fsim.parallel import (
    ParallelFaultSimulator,
    detection_word,
    detection_words,
    detects,
)
from repro.fsim.transition import (
    initialization_word,
    launch_line_word,
)
from repro.fsim.serial import (
    detected_set_serial,
    detection_word_serial,
    detects_serial,
    output_response,
    simulate_with_fault,
)

__all__ = [
    "AutoFaultSim",
    "BACKEND_ENV_VAR",
    "DropSimResult",
    "FaultSimBackend",
    "NumpyFaultSim",
    "ParallelFaultSimulator",
    "available_backends",
    "coverage_curve",
    "create_backend",
    "default_backend_name",
    "detected_set_serial",
    "detection_counts",
    "detection_word",
    "detection_word_serial",
    "detection_words",
    "detects",
    "detects_serial",
    "drop_simulate",
    "initialization_word",
    "launch_line_word",
    "ndet_per_vector",
    "output_response",
    "redundancy_candidates",
    "register_backend",
    "resolve_backend",
    "simulate_with_fault",
]
