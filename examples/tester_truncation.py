"""Tester-memory truncation (the paper's Section 1 motivation).

"The reordered test set is useful if the test set is too large to fit in
the tester memory and it is necessary to remove some tests...  Removing
the last tests of a reordered test set with a steeper fault coverage
curve reduces the fault coverage by a smaller amount."

This example generates test sets under the orig and dynm orders, then
truncates both to the same budgets and compares the surviving coverage.

Run:  python examples/tester_truncation.py [circuit]   (default irs298)
"""

import sys

from repro.experiments import ExperimentRunner
from repro.utils.tables import render_table


def main(circuit_name: str = "irs298"):
    flow = ExperimentRunner(seed=2005).flow(circuit_name)
    total = len(flow.faults())

    reports = {order: flow.report(order) for order in ("orig", "dynm")}
    print(f"{circuit_name}: {total} faults; test sets: "
          + ", ".join(f"{o}={r.num_tests}" for o, r in reports.items()))

    rows = []
    budgets = (0.25, 0.50, 0.75, 1.00)
    for budget in budgets:
        row = [f"{int(budget * 100)}%"]
        for order in ("orig", "dynm"):
            report = reports[order]
            keep = max(1, int(report.num_tests * budget))
            covered = report.curve[keep - 1]
            row.append(f"{covered / total:.1%} ({keep} tests)")
        rows.append(row)

    print()
    print(render_table(
        ["memory budget", "orig order", "dynm order"], rows,
        title="Coverage surviving tester-memory truncation",
    ))

    quarter_orig = reports["orig"].curve[
        max(1, int(reports["orig"].num_tests * 0.25)) - 1] / total
    quarter_dynm = reports["dynm"].curve[
        max(1, int(reports["dynm"].num_tests * 0.25)) - 1] / total
    print(f"\nAt a 25% budget the dynm-ordered set keeps "
          f"{quarter_dynm - quarter_orig:+.1%} coverage vs orig.")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "irs298")
