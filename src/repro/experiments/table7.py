"""Table 7: steepness of the fault-coverage curves (the AVE metric).

Columns, as published: circuit, then ``AVE_ord / AVE_orig`` for ``orig``
(1.000), ``dynm`` and ``0dynm``, plus the average row.  Lower is steeper:
a faulty chip is expected to be detected after fewer tests.  The paper's
headline: ``dynm`` averages ~0.87 — a 13% reduction in the expected
number of tests to first detection — and beats ``0dynm`` even though
``0dynm`` gives smaller test sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.adi import ave_ratios
from repro.experiments.runner import CURVE_ORDERS, ExperimentRunner
from repro.experiments.suite import selected_circuits
from repro.utils.tables import render_table


@dataclass
class Table7Row:
    """AVE ratios for one circuit (``orig`` is the 1.000 baseline)."""

    circuit: str
    ratios: Dict[str, float]
    absolute: Dict[str, float]


def run_table7(runner: Optional[ExperimentRunner] = None,
               circuits: Optional[Sequence[str]] = None) -> List[Table7Row]:
    """Compute AVE ratios for the selected circuits."""
    runner = runner or ExperimentRunner()
    rows: List[Table7Row] = []
    for name in circuits or selected_circuits():
        flow = runner.flow(name)
        reports = {order: flow.report(order) for order in CURVE_ORDERS}
        rows.append(Table7Row(
            circuit=name,
            ratios=ave_ratios(reports),
            absolute={order: r.ave for order, r in reports.items()},
        ))
    return rows


def averages(rows: Sequence[Table7Row]) -> Dict[str, float]:
    """Per-order mean of the AVE ratios."""
    result: Dict[str, float] = {}
    for order in CURVE_ORDERS:
        values = [r.ratios[order] for r in rows if order in r.ratios]
        result[order] = sum(values) / len(values) if values else float("nan")
    return result


def format_table7(rows: Sequence[Table7Row]) -> str:
    """Render in the published layout, average row included."""
    body = [
        [r.circuit] + [f"{r.ratios[o]:.3f}" for o in CURVE_ORDERS]
        for r in rows
    ]
    avg = averages(rows)
    body.append(["average"] + [f"{avg[o]:.3f}" for o in CURVE_ORDERS])
    return render_table(
        ["circuit"] + list(CURVE_ORDERS),
        body,
        title="Table 7: Steepness of fault coverage curves (AVEord/AVEorig)",
    )
