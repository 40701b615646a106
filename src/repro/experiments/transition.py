"""Transition-fault experiment: fault orders under the two-pattern workload.

The paper develops ADI for stuck-at faults; its companion n-detection
work states the quality measures for both stuck-at and transition
faults, and the accidental-detection argument transfers verbatim to
two-pattern scan tests.  This harness runs the Table-5 / Figure-1 style
comparison on the transition workload:

* per circuit, collapse the transition faults, select a two-pattern
  ``U`` (random launch/capture pairs until ~90% transition coverage),
  compute ADI over the pairs;
* generate ordered two-pattern test sets under ``orig`` / ``dynm`` /
  ``0dynm`` and report test counts (the Table-5 view), coverage-curve
  steepness as ``AVE`` ratios against ``orig`` (the Table-7 view), and
  the overlaid coverage curves for one circuit (the Figure-1 view).

Expected shape, mirroring the stuck-at results: ``dynm`` steepest
(lowest ``AVE``), ``0dynm`` smallest test sets, ``orig`` in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.adi.metrics import CurveReport
from repro.experiments.figure1 import (
    Figure1Result,
    figure_from_reports,
    format_figure1,
)
from repro.experiments.runner import TRANSITION_ORDERS, ExperimentRunner
from repro.experiments.suite import selected_circuits
from repro.utils.tables import render_table


@dataclass
class TransitionRow:
    """Per-circuit transition-experiment data, one row of the report."""

    circuit: str
    num_faults: int
    num_pairs: int
    tests: Dict[str, int]
    coverage: Dict[str, float]
    ave: Dict[str, float]

    def ave_ratio(self, order: str, baseline: str = "orig") -> float:
        """``AVE_order / AVE_orig`` — below 1.0 means a steeper curve."""
        return self.ave[order] / self.ave[baseline]


def run_transition(runner: Optional[ExperimentRunner] = None,
                   circuits: Optional[Sequence[str]] = None,
                   orders: Sequence[str] = TRANSITION_ORDERS
                   ) -> List[TransitionRow]:
    """Run the transition-fault experiment for the selected circuits."""
    runner = runner or ExperimentRunner()
    rows: List[TransitionRow] = []
    for name in circuits or selected_circuits():
        prepared = runner.prepare(name, "transition")
        tests: Dict[str, int] = {}
        coverage: Dict[str, float] = {}
        ave: Dict[str, float] = {}
        for order in orders:
            result = runner.testgen(name, order, "transition")
            curve = runner.curve(name, order, "transition")
            tests[order] = result.num_tests
            coverage[order] = result.fault_coverage()
            ave[order] = curve.ave
        rows.append(TransitionRow(
            circuit=name,
            num_faults=prepared.num_faults,
            num_pairs=prepared.selection.num_vectors,
            tests=tests,
            coverage=coverage,
            ave=ave,
        ))
    return rows


def averages(rows: Sequence[TransitionRow],
             orders: Sequence[str] = TRANSITION_ORDERS) -> Dict[str, Dict[str, float]]:
    """Per-order averages of test counts and AVE ratios over the rows."""
    result: Dict[str, Dict[str, float]] = {"tests": {}, "ave_ratio": {}}
    if not rows:
        return result
    for order in orders:
        result["tests"][order] = (
            sum(row.tests[order] for row in rows) / len(rows)
        )
        result["ave_ratio"][order] = (
            sum(row.ave_ratio(order) for row in rows) / len(rows)
        )
    return result


def format_transition(rows: Sequence[TransitionRow],
                      orders: Sequence[str] = TRANSITION_ORDERS) -> str:
    """Render the transition experiment in the published table style."""
    header = (["circuit", "faults", "pairs"]
              + [f"tests:{o}" for o in orders]
              + [f"AVE {o}/orig" for o in orders if o != "orig"])
    body = []
    for row in rows:
        body.append(
            [row.circuit, row.num_faults, row.num_pairs]
            + [row.tests[o] for o in orders]
            + [f"{row.ave_ratio(o):.3f}" for o in orders if o != "orig"]
        )
    avg = averages(rows, orders)
    if rows:
        body.append(
            ["average", "", ""]
            + [round(avg["tests"][o], 1) for o in orders]
            + [f"{avg['ave_ratio'][o]:.3f}" for o in orders if o != "orig"]
        )
    return render_table(
        header, body,
        title="Transition faults: two-pattern test generation per order",
    )


def run_transition_figure(runner: Optional[ExperimentRunner] = None,
                          circuit: str = "irs420",
                          orders: Sequence[str] = TRANSITION_ORDERS
                          ) -> Figure1Result:
    """Figure-1-style transition coverage curves for one circuit.

    Reuses :class:`repro.experiments.figure1.Figure1Result` (and hence
    :func:`~repro.experiments.figure1.format_figure1`) — the plot is the
    same normalization, only the fault model behind the curves differs.
    """
    runner = runner or ExperimentRunner()
    prepared = runner.prepare(circuit, "transition")
    reports: Dict[str, CurveReport] = {
        order: runner.curve(circuit, order, "transition") for order in orders
    }
    return figure_from_reports(circuit, len(prepared.faults), reports)


def format_transition_figure(result: Figure1Result, width: int = 72,
                             height: int = 24) -> str:
    """ASCII rendering of the transition coverage curves."""
    return format_figure1(result, width=width, height=height)
