"""Table 4: accidental detection index statistics per circuit.

Columns, as published: circuit, number of inputs, ``N = |U|`` (random
vectors kept), ``ADImin``, ``ADImax`` (over faults detected by ``U``),
and the ratio ``ADImax/ADImin``.  The paper's takeaway — reproduced here
— is that the spread is well above 1 for every circuit, so ordering by
the index has room to matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner
from repro.experiments.suite import selected_circuits
from repro.utils.tables import render_table


@dataclass
class Table4Row:
    """One circuit's Table 4 numbers."""

    circuit: str
    inputs: int
    vectors: int
    adi_min: int
    adi_max: int

    @property
    def ratio(self) -> float:
        """ADImax / ADImin (0 when nothing was detected)."""
        return self.adi_max / self.adi_min if self.adi_min else 0.0


def run_table4(runner: Optional[ExperimentRunner] = None,
               circuits: Optional[Sequence[str]] = None) -> List[Table4Row]:
    """Compute Table 4 rows for the selected circuits."""
    runner = runner or ExperimentRunner()
    rows: List[Table4Row] = []
    for name in circuits or selected_circuits():
        flow = runner.flow(name)
        lo, hi = flow.adi().adi_min_max()
        rows.append(
            Table4Row(
                circuit=name,
                inputs=flow.circuit().num_inputs,
                vectors=flow.selection().num_vectors,
                adi_min=lo,
                adi_max=hi,
            )
        )
    return rows


def format_table4(rows: Sequence[Table4Row]) -> str:
    """Render in the published column layout."""
    return render_table(
        ["circuit", "inp", "vec", "ADImin", "ADImax", "ratio"],
        [
            (r.circuit, r.inputs, r.vectors, r.adi_min, r.adi_max,
             round(r.ratio, 2))
            for r in rows
        ],
        title="Table 4: Accidental detection index",
    )
