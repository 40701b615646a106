"""Ablations across interchangeable engines.

1. PODEM vs SAT-based ATPG — same verdicts, different costs (the paper's
   authors used a structural ATPG; SAT is the modern alternative);
2. equivalence vs equivalence+dominance collapsed target lists.
"""

import pytest

from repro.atpg import PodemEngine, PodemStatus, SatAtpg
from repro.experiments import build_circuit
from repro.faults import collapsed_fault_list, dominance_reduction
from repro.utils.tables import render_table

CIRCUIT = "irs298"


@pytest.fixture(scope="module")
def circ():
    return build_circuit(CIRCUIT)


@pytest.fixture(scope="module")
def faults(circ):
    return collapsed_fault_list(circ)


def test_ablation_podem_vs_sat(benchmark, circ, faults, record):
    """Verdict agreement and relative effort of the two ATPG engines."""
    sample = faults[:120]

    def run_both():
        podem_engine = PodemEngine(circ)
        sat_engine = SatAtpg(circ)
        import time

        t0 = time.perf_counter()
        podem_statuses = [
            podem_engine.run(f, backtrack_limit=400).status for f in sample
        ]
        podem_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        sat_statuses = [sat_engine.run(f).status for f in sample]
        sat_time = time.perf_counter() - t0
        agree = sum(
            1 for a, b in zip(podem_statuses, sat_statuses) if a == b
        )
        return podem_time, sat_time, agree, len(sample)

    podem_time, sat_time, agree, total = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    record(
        "ablation_atpg_engines",
        render_table(
            ["engine", "time (s)", "verdict agreement"],
            [
                ("PODEM", f"{podem_time:.2f}", f"{agree}/{total}"),
                ("SAT (DPLL miter)", f"{sat_time:.2f}", f"{agree}/{total}"),
            ],
            title=f"Ablation: ATPG engines on {CIRCUIT} ({total} faults)",
        ),
    )
    # Both engines are complete on these faults: verdicts must agree
    # wherever neither aborted (aborts count against agreement here, so
    # demand a high floor rather than perfection).
    assert agree >= total * 0.95


def test_ablation_dominance_collapse(benchmark, record):
    """Target-list sizes under equivalence vs dominance collapsing."""
    rows = []

    def run_all():
        data = []
        for name in ("irs208", "irs298", "irs344"):
            circuit = build_circuit(name)
            eq, dom = dominance_reduction(circuit)
            data.append((name, eq, dom, f"{(eq - dom) / eq:.1%}"))
        return data

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    record(
        "ablation_dominance",
        render_table(
            ["circuit", "equivalence", "+dominance", "extra reduction"],
            rows,
            title="Ablation: dominance collapsing on top of equivalence",
        ),
    )
    for __, eq, dom, __pct in rows:
        assert dom < eq
