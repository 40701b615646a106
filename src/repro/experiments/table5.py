"""Table 5: test-set sizes under the four fault orders.

Columns, as published: circuit, then the number of generated tests for
``Forig``, ``Fdynm``, ``F0dynm`` and ``Fincr0`` (the last omitted for the
two largest circuits, as in the paper), plus the per-order average row.

Expected shape (the paper's conclusions): ``0dynm`` smallest on average,
``dynm`` smaller than ``orig``, ``incr0`` largest — confirming that the
index carries signal in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import TABLE5_ORDERS, ExperimentRunner
from repro.experiments.suite import selected_circuits, suite_entry
from repro.utils.tables import render_table


@dataclass
class Table5Row:
    """Test counts per order for one circuit (None = not run)."""

    circuit: str
    tests: Dict[str, Optional[int]]


def run_table5(runner: Optional[ExperimentRunner] = None,
               circuits: Optional[Sequence[str]] = None) -> List[Table5Row]:
    """Generate tests under every order for the selected circuits."""
    runner = runner or ExperimentRunner()
    rows: List[Table5Row] = []
    for name in circuits or selected_circuits():
        flow = runner.flow(name)
        # The paper skips incr0 for the two largest circuits.
        run_incr0 = suite_entry(name).run_incr0
        tests: Dict[str, Optional[int]] = {
            order: (flow.tests(order).num_tests
                    if order != "incr0" or run_incr0 else None)
            for order in TABLE5_ORDERS
        }
        rows.append(Table5Row(circuit=name, tests=tests))
    return rows


def averages(rows: Sequence[Table5Row]) -> Dict[str, Optional[float]]:
    """Per-order average over circuits where the order ran."""
    result: Dict[str, Optional[float]] = {}
    for order in TABLE5_ORDERS:
        values = [
            row.tests[order] for row in rows if row.tests.get(order) is not None
        ]
        result[order] = sum(values) / len(values) if values else None
    return result


def format_table5(rows: Sequence[Table5Row]) -> str:
    """Render in the published column layout, average row included."""
    def cell(value: Optional[object]) -> str:
        return "-" if value is None else str(value)

    body = [
        [row.circuit] + [cell(row.tests.get(o)) for o in TABLE5_ORDERS]
        for row in rows
    ]
    avg = averages(rows)
    body.append(
        ["average"] + [
            cell(None if avg[o] is None else round(avg[o], 1))
            for o in TABLE5_ORDERS
        ]
    )
    return render_table(
        ["circuit"] + list(TABLE5_ORDERS), body,
        title="Table 5: Test generation (test-set sizes)",
    )
