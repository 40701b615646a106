"""Steep fault-coverage curves (the paper's Figure 1 / Table 7 application).

Plots (in ASCII) the cumulative fault coverage of test sets generated
under the original, dynamic-ADI and zeros-first-dynamic orders, and
reports the AVE metric: the expected number of tests until a faulty chip
is detected.

Run:  python examples/steep_coverage_curve.py [circuit]   (default irs344)
"""

import sys

from repro.adi import ave_ratios
from repro.experiments import ExperimentRunner
from repro.experiments.figure1 import MARKERS, figure_from_reports
from repro.utils.plotting import plot_coverage_curves


def main(circuit_name: str = "irs344"):
    flow = ExperimentRunner(seed=2005).flow(circuit_name)
    orders = ("orig", "dynm", "0dynm")

    reports = {order: flow.report(order) for order in orders}
    figure = figure_from_reports(circuit_name, len(flow.faults()), reports)

    print(plot_coverage_curves(
        figure.points, MARKERS,
        title=f"Fault coverage curves for {circuit_name}",
    ))

    print("\nAVE (expected tests to detect a faulty chip), lower = steeper:")
    ratios = ave_ratios(reports)
    for order in orders:
        print(f"  {order:6s}: AVE = {reports[order].ave:7.2f}   "
              f"AVE/AVE_orig = {ratios[order]:.3f}   "
              f"tests = {reports[order].num_tests}")
    print("\nReading: dynm rises fastest early (accidental detections are "
          "front-loaded);\n0dynm starts flattest because the hard zero-ADI "
          "faults are targeted first.")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "irs344")
