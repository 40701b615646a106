"""Fault-coverage-curve metrics (paper Section 4, Table 7, Figure 1).

Given a test set ``T = <t1 .. tk>`` and the cumulative detected-fault
counts ``n(i)`` (``n(0) = 0``), the paper's steepness summary is the
expected number of tests applied until a faulty chip is detected::

    AVE = ( sum_i  i * [n(i) - n(i-1)] ) / n(k)

A *lower* AVE means a steeper curve: faults (and hence defects) are
caught earlier in the test-application process.  Table 7 reports
``AVE_ord / AVE_orig``.

The flow gets ``n(i)`` without simulating: test generation counts the
faults each new test drops, and :func:`curve_report` folds those counts.
:func:`coverage_curve` is the reference curve, and the curve of a test
set that has no drop counts (a reordered or compacted one): one
no-dropping query over the whole set, where a fault's first detecting
test is the lowest set bit of its row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.errors import ExperimentError
from repro.faults.registry import PatternBlock, query_detection_matrix
from repro.fsim.backend import FaultSimBackend, resolve_backend


def ave_from_curve(curve: Sequence[int]) -> float:
    """The AVE metric from a cumulative coverage curve ``n(1..k)``.

    Raises when the curve detects nothing (AVE is undefined then).
    """
    if not curve:
        raise ExperimentError("empty coverage curve")
    total = curve[-1]
    if total <= 0:
        raise ExperimentError("coverage curve detects no faults")
    weighted = 0
    previous = 0
    for i, value in enumerate(curve, start=1):
        if value < previous:
            raise ExperimentError("coverage curve must be non-decreasing")
        weighted += i * (value - previous)
        previous = value
    return weighted / total


@dataclass(frozen=True)
class CurveReport:
    """A test set's coverage curve plus its summary statistics."""

    curve: Tuple[int, ...]
    total_faults: int

    @property
    def num_tests(self) -> int:
        """Number of tests the curve spans."""
        return len(self.curve)

    @property
    def num_detected(self) -> int:
        """Faults detected by the full test set."""
        return self.curve[-1] if self.curve else 0

    @property
    def ave(self) -> float:
        """The AVE steepness metric (lower = steeper)."""
        return ave_from_curve(self.curve)


def coverage_curve(circ: CompiledCircuit, faults: Sequence,
                   tests: PatternBlock,
                   backend: Union[str, FaultSimBackend, None] = None
                   ) -> List[int]:
    """The paper's ``n(i)`` sequence for a test set, one entry per test.

    ``tests`` may be single vectors (stuck-at ``faults``) or two-pattern
    pairs (transition ``faults``); ``backend`` selects the
    fault-simulation engine (see :mod:`repro.fsim.backend`).  Entry
    ``i`` counts the faults whose first detecting test is at most ``i``.
    """
    matrix = query_detection_matrix(resolve_backend(circ, backend), tests,
                                    faults)
    first = matrix.first_set_bits()
    counts = np.bincount(first[first >= 0], minlength=tests.num_patterns)
    return np.cumsum(counts).tolist()


def curve_report(faults: Sequence, tests: PatternBlock,
                 detected_per_test: Sequence[int]) -> CurveReport:
    """Fold test generation's drop counts into a :class:`CurveReport`.

    ``detected_per_test`` holds the faults each test of ``tests``
    dropped, as :attr:`repro.atpg.engine.TestGenResult.detected_per_test`
    counts them while generating ``tests`` from ``faults``.  The curve
    is their running sum, once there is one non-negative count per test
    and the total does not exceed ``faults``.
    """
    counts = list(detected_per_test)
    if len(counts) != tests.num_patterns:
        raise ExperimentError(
            f"{len(counts)} drop counts for {tests.num_patterns} tests"
        )
    if counts and min(counts) < 0:
        raise ExperimentError("drop counts must be non-negative")
    curve = tuple(itertools.accumulate(counts))
    if curve and curve[-1] > len(faults):
        raise ExperimentError(
            f"drop counts total {curve[-1]}, more than the "
            f"{len(faults)} faults"
        )
    return CurveReport(curve=curve, total_faults=len(faults))


def ave_ratios(reports: dict) -> dict:
    """``AVE_ord / AVE_orig`` for a dict of named :class:`CurveReport`.

    The paper's Table 7 rows.  Raises if the ``orig`` report is missing.
    """
    if "orig" not in reports:
        raise ExperimentError("baseline order 'orig' missing")
    base = reports["orig"].ave
    return {name: report.ave / base for name, report in reports.items()}
