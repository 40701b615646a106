"""Ablation: the static orders the paper dropped from Table 5.

Section 4: "We do not consider Fdecr and F0decr since Fdynm and F0dynm
proved to be better."  This benchmark runs all six orders on a small
circuit subset and records the comparison the paper alludes to.
"""

from repro.utils.tables import render_table

CIRCUITS = ("irs208", "irs298", "irs344")
ALL_ORDERS = ("orig", "decr", "0decr", "dynm", "0dynm", "incr0")


def _run_all(runner):
    rows = []
    totals = {order: 0 for order in ALL_ORDERS}
    for name in CIRCUITS:
        flow = runner.flow(name)
        counts = {}
        for order in ALL_ORDERS:
            counts[order] = flow.tests(order).num_tests
            totals[order] += counts[order]
        rows.append([name] + [counts[o] for o in ALL_ORDERS])
    return rows, totals


def test_ablation_static_vs_dynamic_orders(benchmark, runner, record):
    rows, totals = benchmark.pedantic(
        lambda: _run_all(runner), rounds=1, iterations=1
    )
    body = rows + [["total"] + [totals[o] for o in ALL_ORDERS]]
    record(
        "ablation_orders",
        render_table(
            ["circuit"] + list(ALL_ORDERS), body,
            title="Ablation: static (decr/0decr) vs dynamic (dynm/0dynm) orders",
        ),
    )
    # The paper's stated reason for dropping the static orders: the
    # dynamic variants are at least as good in aggregate.  On a three-
    # circuit sample the totals can sit within a test or two of each
    # other, so allow a one-test-per-circuit band.
    assert totals["0dynm"] <= totals["0decr"] + len(CIRCUITS)
    # And every ADI-based decreasing order beats the adversarial one.
    for order in ("decr", "0decr", "dynm", "0dynm"):
        assert totals[order] < totals["incr0"]
