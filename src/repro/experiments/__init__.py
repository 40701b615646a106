"""Experiment harness: one module per published table/figure.

Run from the command line::

    python -m repro.experiments table4          # quick circuit subset
    REPRO_FULL=1 python -m repro.experiments all

or from Python::

    from repro.experiments import ExperimentRunner, run_table5, format_table5
    rows = run_table5()
    print(format_table5(rows))
"""

from repro.experiments.figure1 import Figure1Result, format_figure1, run_figure1
from repro.experiments.runner import (
    CURVE_ORDERS,
    TABLE5_ORDERS,
    ExperimentRunner,
)
from repro.experiments.suite import (
    ALL_CIRCUITS,
    QUICK_CIRCUITS,
    SUITE,
    SuiteEntry,
    build_circuit,
    selected_circuits,
    suite_entry,
)
from repro.experiments.table1 import Table1Result, format_table1, run_table1
from repro.experiments.table4 import Table4Row, format_table4, run_table4
from repro.experiments.table5 import Table5Row, format_table5, run_table5
from repro.experiments.table6 import Table6Row, format_table6, run_table6
from repro.experiments.table7 import Table7Row, format_table7, run_table7
from repro.experiments.transition import (
    TransitionRow,
    format_transition,
    run_transition,
)

__all__ = [
    "ALL_CIRCUITS",
    "CURVE_ORDERS",
    "ExperimentRunner",
    "Figure1Result",
    "QUICK_CIRCUITS",
    "SUITE",
    "SuiteEntry",
    "TABLE5_ORDERS",
    "Table1Result",
    "Table4Row",
    "Table5Row",
    "Table6Row",
    "Table7Row",
    "TransitionRow",
    "build_circuit",
    "format_figure1",
    "format_table1",
    "format_table4",
    "format_table5",
    "format_table6",
    "format_table7",
    "format_transition",
    "run_figure1",
    "run_table1",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_transition",
    "selected_circuits",
    "suite_entry",
]
