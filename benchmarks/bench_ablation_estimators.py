"""Ablations on how the ADI is estimated.

1. n-detection ``ndet`` estimation (paper Section 2 suggests it as a
   cheaper alternative to no-dropping simulation);
2. the average-based ADI instead of the conservative minimum;
3. pruning useless vectors from U (paper Section 4 speed-up note);
4. X-fill policy of the ATPG (random fill drives accidental detection).
"""

import numpy as np

from repro.adi import AdiMode, compute_adi, f0dynm, select_u
from repro.atpg import TestGenConfig, generate_tests
from repro.experiments import build_circuit
from repro.faults import collapsed_fault_list
from repro.fsim import ndet_per_vector
from repro.utils.tables import render_table

CIRCUIT = "irs298"


def test_ablation_ndetect_estimator(benchmark, runner, record):
    """How close does n-detection ndet get to the exact no-drop counts?"""
    flow = runner.flow(CIRCUIT)
    circ, faults = flow.circuit(), flow.faults()
    patterns = flow.selection().patterns

    def correlations():
        exact = ndet_per_vector(circ, faults, patterns)
        rows = []
        for n in (1, 3, 5, 10):
            estimate = ndet_per_vector(circ, faults, patterns, n=n)
            corr = float(np.corrcoef(exact, estimate)[0, 1])
            rows.append((f"n={n}", round(corr, 4),
                         int(estimate.sum()), int(exact.sum())))
        return rows

    rows = benchmark.pedantic(correlations, rounds=1, iterations=1)
    record(
        "ablation_ndetect",
        render_table(
            ["estimator", "corr(exact)", "est total", "exact total"], rows,
            title=f"Ablation: n-detection ndet estimation on {CIRCUIT}",
        ),
    )
    correlation_by_n = {row[0]: row[1] for row in rows}
    # More detections per fault -> closer to the exact profile.
    assert correlation_by_n["n=10"] >= correlation_by_n["n=1"]


def test_ablation_average_adi(benchmark, runner, record):
    """Average-based ADI vs the paper's conservative minimum."""
    flow = runner.flow(CIRCUIT)
    circ, faults = flow.circuit(), flow.faults()

    def run_both():
        results = {}
        for mode in (AdiMode.MINIMUM, AdiMode.AVERAGE):
            adi = compute_adi(circ, faults, flow.selection().patterns,
                              mode=mode)
            order = f0dynm(adi)
            outcome = generate_tests(
                circ, [faults[i] for i in order],
                TestGenConfig(seed=2005),
            )
            results[mode.value] = outcome.num_tests
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    record(
        "ablation_adi_mode",
        render_table(
            ["mode", "tests"],
            [(k, v) for k, v in results.items()],
            title=f"Ablation: ADI aggregation mode on {CIRCUIT} (F0dynm)",
        ),
    )
    assert all(v > 0 for v in results.values())


def test_ablation_prune_useless_vectors(benchmark, runner, record):
    """Paper's speed-up note: drop U vectors that detect nothing new."""
    flow = runner.flow(CIRCUIT)
    circ, faults = flow.circuit(), flow.faults()

    def run_both():
        plain = select_u(circ, faults, seed=2005)
        pruned = select_u(circ, faults, seed=2005, prune_useless=True)
        return {
            name: (sel.num_vectors,
                   sum(vec >= 0 for vec in sel.first_detection))
            for name, sel in (("plain", plain), ("pruned", pruned))
        }

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    record(
        "ablation_prune_u",
        render_table(
            ["variant", "|U|", "|FU|"],
            [(k, v[0], v[1]) for k, v in results.items()],
            title=f"Ablation: pruning useless vectors from U on {CIRCUIT}",
        ),
    )
    # Pruning shrinks U without losing any detected fault.
    assert results["pruned"][0] <= results["plain"][0]
    assert results["pruned"][1] == results["plain"][1]


def test_ablation_fill_policy(benchmark, runner, record):
    """Random X-fill maximizes accidental detections vs constant fills."""
    flow = runner.flow(CIRCUIT)
    circ, faults = flow.circuit(), flow.faults()
    order = f0dynm(flow.adi())
    ordered = [faults[i] for i in order]

    def run_fills():
        return {
            fill: generate_tests(
                circ, ordered, TestGenConfig(fill=fill, seed=2005)
            ).num_tests
            for fill in ("random", "zero", "one")
        }

    results = benchmark.pedantic(run_fills, rounds=1, iterations=1)
    record(
        "ablation_fill",
        render_table(
            ["fill", "tests"], list(results.items()),
            title=f"Ablation: X-fill policy on {CIRCUIT} (F0dynm order)",
        ),
    )
    assert all(v > 0 for v in results.values())
