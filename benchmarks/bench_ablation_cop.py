"""Ablation: COP-predicted random-pattern resistance vs measurement.

Validates the suite generator's calibration story
(:mod:`repro.circuit.generator`): the probabilistic testability model
should predict which faults the random vector set ``U`` misses — the
``ADI(f) = 0`` population that drives the difference between ``Fdynm``
and ``F0dynm``.
"""

import numpy as np

from repro.atpg import compute_cop
from repro.faults import collapsed_fault_list
from repro.fsim import detection_counts
from repro.experiments import build_circuit
from repro.sim import PatternSet
from repro.utils.tables import render_table

CIRCUITS = ("irs208", "irs420")
VECTORS = 2048


def _study():
    rows = []
    for name in CIRCUITS:
        circ = build_circuit(name)
        faults = collapsed_fault_list(circ)
        cop = compute_cop(circ)
        patterns = PatternSet.random(circ.num_inputs, VECTORS, seed=17)
        measured = detection_counts(circ, faults, patterns)

        predicted = np.array([
            cop.detection_probability(circ, f) for f in faults
        ])
        observed = np.array([measured[f] / VECTORS for f in faults])

        pr = np.argsort(np.argsort(predicted))
        ob = np.argsort(np.argsort(observed))
        rho = float(np.corrcoef(pr, ob)[0, 1])

        # How well does "predicted hardest decile" match the measured
        # undetected set?
        undetected = {f for f in faults if measured[f] == 0}
        k = max(len(undetected), 1)
        hardest = {
            faults[i] for i in np.argsort(predicted)[:k]
        }
        recall = len(undetected & hardest) / k if undetected else 1.0
        rows.append((name, len(faults), len(undetected),
                     f"{rho:.3f}", f"{recall:.2f}"))
    return rows


def test_ablation_cop_calibration(benchmark, record):
    rows = benchmark.pedantic(_study, rounds=1, iterations=1)
    record(
        "ablation_cop",
        render_table(
            ["circuit", "faults", f"undetected@{VECTORS}", "rank corr",
             "hard-decile recall"],
            rows,
            title="Ablation: COP prediction of random-pattern resistance",
        ),
    )
    for __, __f, __u, rho, __r in rows:
        assert float(rho) > 0.3
