"""Transition-fault experiment: fault orders under the two-pattern workload.

The paper develops ADI for stuck-at faults; its companion n-detection
work states the quality measures for both stuck-at and transition
faults, and the accidental-detection argument transfers verbatim to
two-pattern scan tests.  This harness runs the Table-5 / Table-7 style
comparison on the transition workload:

* per circuit, collapse the transition faults, select a two-pattern
  ``U`` (random launch/capture pairs until ~90% transition coverage),
  compute ADI over the pairs;
* generate ordered two-pattern test sets under ``orig`` / ``dynm`` /
  ``0dynm`` and report test counts (the Table-5 view) and coverage-curve
  steepness as ``AVE`` ratios against ``orig`` (the Table-7 view).

Expected shape, mirroring the stuck-at results: ``dynm`` steepest
(lowest ``AVE``), ``0dynm`` smallest test sets, ``orig`` in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.adi import ave_ratios
from repro.experiments.runner import CURVE_ORDERS, ExperimentRunner
from repro.experiments.suite import selected_circuits
from repro.utils.tables import render_table


@dataclass
class TransitionRow:
    """Per-circuit transition-experiment data, one row of the report.

    ``ratios`` holds ``AVE_order / AVE_orig``: below 1.0 means a steeper
    curve.
    """

    circuit: str
    num_faults: int
    num_pairs: int
    tests: Dict[str, int]
    coverage: Dict[str, float]
    ratios: Dict[str, float]


def run_transition(runner: Optional[ExperimentRunner] = None,
                   circuits: Optional[Sequence[str]] = None
                   ) -> List[TransitionRow]:
    """Run the transition-fault experiment for the selected circuits."""
    runner = runner or ExperimentRunner()
    rows: List[TransitionRow] = []
    for name in circuits or selected_circuits():
        flow = runner.flow(name, "transition")
        results = {order: flow.tests(order) for order in CURVE_ORDERS}
        rows.append(TransitionRow(
            circuit=name,
            num_faults=len(flow.faults()),
            num_pairs=flow.selection().num_vectors,
            tests={o: r.num_tests for o, r in results.items()},
            coverage={o: r.fault_coverage() for o, r in results.items()},
            ratios=ave_ratios({o: flow.report(o) for o in CURVE_ORDERS}),
        ))
    return rows


def averages(rows: Sequence[TransitionRow]) -> Dict[str, Dict[str, float]]:
    """Per-order averages of test counts and AVE ratios over the rows."""
    result: Dict[str, Dict[str, float]] = {"tests": {}, "ave_ratio": {}}
    if not rows:
        return result
    for order in CURVE_ORDERS:
        result["tests"][order] = (
            sum(row.tests[order] for row in rows) / len(rows)
        )
        result["ave_ratio"][order] = (
            sum(row.ratios[order] for row in rows) / len(rows)
        )
    return result


def format_transition(rows: Sequence[TransitionRow]) -> str:
    """Render the transition experiment in the published table style."""
    steeper = [o for o in CURVE_ORDERS if o != "orig"]
    header = (["circuit", "faults", "pairs"]
              + [f"tests:{o}" for o in CURVE_ORDERS]
              + [f"AVE {o}/orig" for o in steeper])
    body = []
    for row in rows:
        body.append(
            [row.circuit, row.num_faults, row.num_pairs]
            + [row.tests[o] for o in CURVE_ORDERS]
            + [f"{row.ratios[o]:.3f}" for o in steeper]
        )
    avg = averages(rows)
    if rows:
        body.append(
            ["average", "", ""]
            + [str(round(avg["tests"][o], 1)) for o in CURVE_ORDERS]
            + [f"{avg['ave_ratio'][o]:.3f}" for o in steeper]
        )
    return render_table(
        header, body,
        title="Transition faults: two-pattern test generation per order",
    )
