"""ADI-ordered generation vs post-hoc reordering (paper Section 1 vs [7]).

The paper argues that generating tests in accidental-detection-index
order yields steeper coverage curves than taking an arbitrary test set
and reordering it afterwards (the method of reference [7], Lin et al.).
This example measures all four combinations on one circuit:

    orig              Forig-generated tests, as generated
    orig + reorder    the same tests, greedily reordered
    dynm              Fdynm-generated tests, as generated
    dynm + reorder    Fdynm tests, greedily reordered

Run:  python examples/reordering_comparison.py [circuit]  (default irs344)
"""

import sys

from repro.adi import ave_from_curve, coverage_curve
from repro.atpg import reorder_by_detection
from repro.experiments import ExperimentRunner
from repro.utils.tables import render_table


def main(circuit_name: str = "irs344"):
    flow = ExperimentRunner(seed=2005).flow(circuit_name)
    circ, faults = flow.circuit(), flow.faults()

    variants = {}
    for order in ("orig", "dynm"):
        tests = flow.tests(order).tests
        variants[order] = tests
        variants[f"{order} + reorder"] = reorder_by_detection(
            circ, faults, tests, greedy=True
        )

    aves = {
        label: ave_from_curve(coverage_curve(circ, faults, tests))
        for label, tests in variants.items()
    }
    base = aves["orig"]

    rows = [
        (label, variants[label].num_patterns, f"{ave:.2f}",
         f"{ave / base:.3f}")
        for label, ave in aves.items()
    ]
    print(render_table(
        ["variant", "tests", "AVE", "AVE/AVE_orig"], rows,
        title=f"Generation order vs post-hoc reordering on {circuit_name}",
    ))
    print(
        "\nReading: reordering helps any test set, but the ADI-generated\n"
        "set starts ahead — the heuristic builds steepness into the tests\n"
        "themselves, which is the paper's Section 1 argument."
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "irs344")
