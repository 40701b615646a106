"""Command-line entry point: regenerate any paper table or figure.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments table5 --circuits irs208 irs298
    python -m repro.experiments transition --circuits irs208 irs298
    REPRO_FULL=1 python -m repro.experiments all --seed 2005
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import (
    ExperimentRunner,
    format_figure1,
    format_table1,
    format_table4,
    format_table5,
    format_table6,
    format_table7,
    format_transition,
    run_figure1,
    run_table1,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_transition,
    selected_circuits,
)

_TARGETS = ("table1", "table4", "table5", "table6", "table7", "figure1",
            "transition", "stats", "all")


def _emit(runner: ExperimentRunner, target: str,
          circuits: Optional[List[str]]) -> str:
    if target == "stats":
        from repro.experiments import build_circuit, suite_entry
        from repro.utils.tables import render_table

        names = circuits if circuits is not None else selected_circuits()
        rows = []
        for name in names:
            entry = suite_entry(name)
            circ = build_circuit(name)
            rows.append(
                (name, circ.num_inputs, circ.num_outputs, circ.num_gates,
                 "yes" if entry.irredundant else "no")
            )
        return render_table(
            ["circuit", "inputs", "outputs", "gates", "irredundant"],
            rows, title="Suite circuits (synthetic stand-ins)",
        )
    if target == "table1":
        return format_table1(run_table1())
    if target == "table4":
        return format_table4(run_table4(runner, circuits))
    if target == "table5":
        return format_table5(run_table5(runner, circuits))
    if target == "table6":
        return format_table6(run_table6(runner, circuits))
    if target == "table7":
        return format_table7(run_table7(runner, circuits))
    if target == "figure1":
        return format_figure1(run_figure1(runner))
    if target == "transition":
        return format_transition(run_transition(runner, circuits))
    raise ValueError(f"unknown target {target!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI driver; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figure.",
    )
    parser.add_argument("target", choices=_TARGETS,
                        help="which artefact to regenerate")
    parser.add_argument("--circuits", nargs="*", default=None,
                        help="suite circuit names (default: quick subset, "
                             "or all with REPRO_FULL=1)")
    parser.add_argument("--seed", type=int, default=2005,
                        help="experiment seed (default 2005)")
    parser.add_argument("--full", action="store_true",
                        help="run the full 14-circuit suite")
    args = parser.parse_args(argv)

    circuits = args.circuits
    if circuits is None and args.full:
        circuits = selected_circuits(full=True)

    runner = ExperimentRunner(seed=args.seed)
    targets = (
        ["table1", "table4", "table5", "table6", "table7", "figure1",
         "transition"]
        if args.target == "all" else [args.target]
    )
    for i, target in enumerate(targets):
        if i:
            print()
        print(_emit(runner, target, circuits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
