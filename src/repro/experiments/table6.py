"""Table 6: relative test-generation run times.

Columns, as published: circuit, then ``RT_ord / RT_orig`` for ``orig``
(1.00 by construction), ``dynm`` and ``0dynm``, plus the average row.
The paper's point: unlike other dynamic-compaction heuristics, fault
ordering is (nearly) free — the ratios hover around 1.0 and often dip
below it, because better orders leave fewer faults for PODEM to target.

The published table reports a 9-circuit subset; this harness accepts any
subset and defaults to the standard selection.

As an extension beyond the paper we also record the *ordering overhead*
(U selection + ADI computation + permutation) separately, supporting the
claim that the preprocessing cost is small.  The U and ADI times are the
ones the Flow recorded for its stages; the permutations are timed on a
copy of the ADI result without the dynamic placements an earlier table
cached on it, so the column times the ordering work, not a cache read.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.adi import ORDERS
from repro.experiments.runner import CURVE_ORDERS, ExperimentRunner
from repro.experiments.suite import selected_circuits
from repro.utils.tables import render_table


@dataclass
class Table6Row:
    """Relative run times for one circuit (``orig`` is the 1.0 baseline)."""

    circuit: str
    relative: Dict[str, float]
    absolute: Dict[str, float]
    ordering_overhead_seconds: float


def run_table6(runner: Optional[ExperimentRunner] = None,
               circuits: Optional[Sequence[str]] = None) -> List[Table6Row]:
    """Measure test-generation time per order for the selected circuits."""
    runner = runner or ExperimentRunner()
    rows: List[Table6Row] = []
    for name in circuits or selected_circuits():
        flow = runner.flow(name)
        adi = dataclasses.replace(flow.adi())
        started = time.perf_counter()
        for order in CURVE_ORDERS:
            if order != "orig":
                ORDERS[order](adi)
        overhead = (time.perf_counter() - started
                    + flow.stage_log["u"].seconds
                    + flow.stage_log["adi"].seconds)

        absolute = {
            order: flow.tests(order).runtime_seconds
            for order in CURVE_ORDERS
        }
        base = absolute["orig"]
        relative = {
            order: (value / base if base > 0 else float("nan"))
            for order, value in absolute.items()
        }
        rows.append(
            Table6Row(
                circuit=name,
                relative=relative,
                absolute=absolute,
                ordering_overhead_seconds=overhead,
            )
        )
    return rows


def averages(rows: Sequence[Table6Row]) -> Dict[str, float]:
    """Per-order mean of the relative run times."""
    result: Dict[str, float] = {}
    for order in CURVE_ORDERS:
        values = [r.relative[order] for r in rows if order in r.relative]
        result[order] = sum(values) / len(values) if values else float("nan")
    return result


def format_table6(rows: Sequence[Table6Row]) -> str:
    """Render in the published layout, with the overhead extension column."""
    body = [
        [r.circuit]
        + [f"{r.relative[o]:.2f}" for o in CURVE_ORDERS]
        + [f"{r.ordering_overhead_seconds * 1000:.0f}ms"]
        for r in rows
    ]
    avg = averages(rows)
    body.append(["average"] + [f"{avg[o]:.2f}" for o in CURVE_ORDERS] + [""])
    return render_table(
        ["circuit"] + list(CURVE_ORDERS) + ["ordering"],
        body,
        title="Table 6: Relative run times (t.gen; 'ordering' column is our extension)",
    )
