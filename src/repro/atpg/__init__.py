"""Deterministic test generation: SCOAP, PODEM, SAT-ATPG, test reordering.

One ordered-targets / fault-dropping loop
(:func:`repro.atpg.engine.ordered_tests`) serves every fault model and
returns one :class:`TestGenResult`: :func:`generate_tests` supplies
single-vector stuck-at tests, :func:`generate_transition_tests`
two-pattern transition tests.
"""

from repro.atpg.compaction import (
    detection_matrix,
    reorder_by_detection,
)
from repro.atpg.cop import Cop, compute_cop
from repro.atpg.engine import TestGenConfig, TestGenResult, generate_tests
from repro.atpg.podem import PodemEngine, PodemResult, PodemStatus, podem
from repro.atpg.random_fill import (
    fill_constant,
    fill_cube,
    fill_random,
)
from repro.atpg.sat import (
    CnfFormula,
    DpllSolver,
    SatResult,
    SatStatus,
    solve_cnf,
)
from repro.atpg.satgen import SatAtpg, sat_podem
from repro.atpg.scoap import Scoap, compute_scoap
from repro.atpg.transition import generate_transition_tests

__all__ = [
    "CnfFormula",
    "Cop",
    "DpllSolver",
    "PodemEngine",
    "PodemResult",
    "PodemStatus",
    "SatAtpg",
    "SatResult",
    "SatStatus",
    "Scoap",
    "TestGenConfig",
    "TestGenResult",
    "compute_cop",
    "compute_scoap",
    "detection_matrix",
    "fill_constant",
    "fill_cube",
    "fill_random",
    "generate_tests",
    "generate_transition_tests",
    "podem",
    "reorder_by_detection",
    "sat_podem",
    "solve_cnf",
]
