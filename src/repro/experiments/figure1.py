"""Figure 1: fault-coverage curves for irs420 under three orders.

The published figure plots cumulative fault coverage against the number
of applied tests (as a percentage of the *largest* of the three test
sets), with markers ``o`` (orig), ``d`` (dynm) and ``z`` (0dynm).  The
expected shape: the ``dynm`` curve rises fastest; ``0dynm`` starts
flattest because the zero-ADI (hard, rarely-accidentally-detected)
faults are targeted first; all curves meet at their final coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import CURVE_ORDERS, ExperimentRunner
from repro.utils.plotting import plot_coverage_curves

#: Marker characters, exactly as in the published figure.
MARKERS: Dict[str, str] = {"orig": "o", "dynm": "d", "0dynm": "z"}


@dataclass
class Figure1Result:
    """Curve points per order, normalized the way the paper plots them."""

    circuit: str
    points: Dict[str, List[Tuple[float, float]]]
    test_counts: Dict[str, int]
    total_faults: int


def figure_from_reports(circuit: str, total_faults: int,
                        reports: Dict[str, object]) -> Figure1Result:
    """Normalize per-order curve reports the way the paper plots them.

    ``reports`` maps order name to a :class:`repro.adi.metrics.CurveReport`;
    the x-axis is rescaled against the *largest* test set.
    """
    largest = max(r.num_tests for r in reports.values())
    points: Dict[str, List[Tuple[float, float]]] = {}
    for order, report in reports.items():
        points[order] = [
            ((i + 1) / largest, report.curve[i] / total_faults)
            for i in range(report.num_tests)
        ]
    return Figure1Result(
        circuit=circuit,
        points=points,
        test_counts={o: r.num_tests for o, r in reports.items()},
        total_faults=total_faults,
    )


def run_figure1(runner: Optional[ExperimentRunner] = None,
                circuit: str = "irs420") -> Figure1Result:
    """Compute the figure's data points for ``circuit``."""
    runner = runner or ExperimentRunner()
    flow = runner.flow(circuit)
    reports = {order: flow.report(order) for order in CURVE_ORDERS}
    return figure_from_reports(circuit, len(flow.faults()), reports)


def format_figure1(result: Figure1Result) -> str:
    """Render the ASCII version of the figure."""
    markers = {
        order: MARKERS.get(order, "*") for order in result.points
    }
    title = (
        f"Figure 1: Fault coverage curve for {result.circuit} "
        f"({result.total_faults} faults; tests: "
        + ", ".join(f"{o}={n}" for o, n in result.test_counts.items())
        + ")"
    )
    return plot_coverage_curves(result.points, markers, title)
