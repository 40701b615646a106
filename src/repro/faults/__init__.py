"""Fault models (stuck-at and transition), universes, collapsing, bookkeeping.

The fault-model *registry* (:mod:`repro.faults.registry`) is the
dispatch hub: every pipeline stage that is polymorphic over fault models
(ADI, ``U`` selection, coverage curves, test generation, the flow facade)
resolves its model here instead of type-checking pattern containers.
"""

from repro.faults.collapse import CollapsedFaults, collapse_faults, collapsed_fault_list
from repro.faults.dominance import dominance_collapse, dominance_reduction
from repro.faults.model import STEM, Fault, check_fault
from repro.faults.registry import (
    FaultModel,
    PatternBlock,
    available_fault_models,
    fault_model,
    model_for_block,
    query_detection_matrix,
    register_fault_model,
)
from repro.faults.sets import FaultStatus
from repro.faults.transition import (
    SLOW_TO_FALL,
    SLOW_TO_RISE,
    TransitionFault,
    check_transition_fault,
    collapse_transition_faults,
    transition_fault_list,
    transition_universe,
)
from repro.faults.universe import full_universe, line_branches

__all__ = [
    "CollapsedFaults",
    "Fault",
    "FaultModel",
    "FaultStatus",
    "PatternBlock",
    "SLOW_TO_FALL",
    "SLOW_TO_RISE",
    "STEM",
    "TransitionFault",
    "available_fault_models",
    "check_fault",
    "check_transition_fault",
    "collapse_faults",
    "collapse_transition_faults",
    "collapsed_fault_list",
    "dominance_collapse",
    "dominance_reduction",
    "fault_model",
    "full_universe",
    "line_branches",
    "model_for_block",
    "query_detection_matrix",
    "register_fault_model",
    "transition_fault_list",
    "transition_universe",
]
