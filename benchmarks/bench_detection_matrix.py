"""A/B harness for the packed detection-matrix fast path.

Measures the end-to-end **order stage** — fault simulation, ADI
computation, dynamic ``Fdynm`` ordering — old vs. new on a large
generated circuit:

* **legacy** — the pre-packed-path pipeline, reproduced verbatim here:
  big-int detection words out of the engine, per-fault
  ``bits_to_array``/``bit_indices`` Python loops to build
  ``ndet``/``D(f)``/ADI, and the per-candidate lazy max-heap for the
  dynamic order;
* **packed** — the current APIs: ``detection_matrix`` straight out of
  the engine, :func:`repro.adi.index.adi_from_detection_matrix`
  (vectorized column popcounts + masked reductions) and the
  per-level bitset sweep of :mod:`repro.adi.dynamic` (fault and pattern
  sets as big-ints, ``ndet`` as bit planes), on a fresh result per run
  (the result caches its placement sequence).

Both sides are verified to produce bit-identical ADI values and
identical dynamic orders; the acceptance gate requires the packed
ADI+ordering stage (everything after the shared fault simulation) to be
at least ``3x`` faster at the ~600-gate / ~3k-fault / 1024-pattern
point.  Results are written to
``results/detection_matrix_speedup.json``.

Standalone (writes the JSON, prints the table, exits non-zero if the
gated scenario misses the bar)::

    PYTHONPATH=src python benchmarks/bench_detection_matrix.py
    PYTHONPATH=src python benchmarks/bench_detection_matrix.py --quick

Under pytest-benchmark (statistical timings, no acceptance gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_detection_matrix.py -q
"""

from __future__ import annotations

import heapq
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.adi.dynamic import fdynm
from repro.adi.index import AdiMode, adi_from_detection_matrix
from repro.circuit import GeneratorSpec, generate_circuit
from repro.faults import collapsed_fault_list
from repro.fsim.backend import create_backend
from repro.sim.patterns import PatternSet
from repro.utils.bitvec import bit_indices, bits_to_array

RESULTS_PATH = Path(__file__).resolve().parents[1] / "results" / \
    "detection_matrix_speedup.json"

#: The gated scenario's acceptance bar: packed ADI+ordering >= 3x legacy.
ACCEPTANCE_SPEEDUP = 3.0


@dataclass(frozen=True)
class Scenario:
    """One (circuit size, fault count, block width) measurement point."""

    name: str
    num_inputs: int
    num_gates: int
    num_outputs: int
    num_patterns: int
    gated: bool  # participates in the acceptance check


SCENARIOS = (
    Scenario("medium-300g-256p", 24, 300, 12, 256, gated=False),
    Scenario("large-600g-1024p", 32, 600, 16, 1024, gated=True),
    # ~3k collapsed stuck-at faults needs ~820 generated gates.
    Scenario("large-820g-1024p", 32, 820, 16, 1024, gated=True),
)

#: The --quick subset: just the gated point, one repeat.
QUICK_SCENARIOS = (SCENARIOS[-1],)


def build_scenario(scenario: Scenario):
    circ = generate_circuit(GeneratorSpec(
        name=f"bench_{scenario.name}",
        num_inputs=scenario.num_inputs,
        num_gates=scenario.num_gates,
        num_outputs=scenario.num_outputs,
        seed=2005,
    ))
    faults = collapsed_fault_list(circ)
    patterns = PatternSet.random(circ.num_inputs, scenario.num_patterns,
                                 seed=2005)
    return circ, faults, patterns


# -- the legacy pipeline, verbatim --------------------------------------------

def legacy_adi(faults, words: List[int], num_vectors: int):
    """The pre-packed ADI reduction over big-int words (per-fault loops)."""
    masks: List[int] = []
    d_sets: List[np.ndarray] = []
    ndet = np.zeros(num_vectors, dtype=np.int64)
    for mask in words:
        masks.append(mask)
        if mask:
            ndet += bits_to_array(mask, num_vectors)
            d_sets.append(
                np.asarray(bit_indices(mask), dtype=np.int64)
            )
        else:
            d_sets.append(np.empty(0, dtype=np.int64))
    adi = np.zeros(len(faults), dtype=np.int64)
    for i, vecs in enumerate(d_sets):
        if vecs.size:
            adi[i] = ndet[vecs].min()
    return d_sets, ndet, adi


def legacy_fdynm(d_sets, ndet_in: np.ndarray, adi: np.ndarray
                 ) -> List[int]:
    """Pre-packed-path dynamic order: per-candidate lazy max-heap."""
    ndet = ndet_in.astype(np.int64).copy()

    def current_adi(i: int) -> int:
        vecs = d_sets[i]
        return int(ndet[vecs].min()) if vecs.size else 0

    nonzero = [i for i in range(len(adi)) if adi[i] != 0]
    zeros = [i for i in range(len(adi)) if adi[i] == 0]
    heap = [(-current_adi(i), i) for i in nonzero]
    heapq.heapify(heap)
    placed: List[int] = []
    done = set()
    while heap:
        neg_value, i = heapq.heappop(heap)
        if i in done:
            continue
        fresh = current_adi(i)
        if -neg_value != fresh:
            heapq.heappush(heap, (-fresh, i))
            continue
        placed.append(i)
        done.add(i)
        vecs = d_sets[i]
        if vecs.size:
            ndet[vecs] -= 1
    return placed + zeros


def run_legacy(circ, faults, patterns) -> Dict:
    """Time the legacy order stage; returns timings + results."""
    engine = create_backend(circ, "numpy")
    engine.load(patterns)
    t0 = time.perf_counter()
    words = engine.detection_words(faults)
    t1 = time.perf_counter()
    d_sets, ndet, adi = legacy_adi(faults, words, patterns.num_patterns)
    t2 = time.perf_counter()
    order = legacy_fdynm(d_sets, ndet, adi)
    t3 = time.perf_counter()
    return {
        "fsim": t1 - t0, "adi": t2 - t1, "order": t3 - t2,
        "adi_values": adi, "permutation": order,
    }


def run_packed(circ, faults, patterns) -> Dict:
    """Time the packed order stage; returns timings + results."""
    engine = create_backend(circ, "numpy")
    engine.load(patterns)
    t0 = time.perf_counter()
    matrix = engine.detection_matrix(faults)
    t1 = time.perf_counter()
    result = adi_from_detection_matrix(faults, matrix)
    t2 = time.perf_counter()
    order = fdynm(result)
    t3 = time.perf_counter()
    return {
        "fsim": t1 - t0, "adi": t2 - t1, "order": t3 - t2,
        "adi_values": result.adi, "permutation": order,
    }


def run_scenario(scenario: Scenario, repeats: int = 3) -> Dict:
    """Best-of-``repeats`` both pipelines; verify identical results."""
    circ, faults, patterns = build_scenario(scenario)
    best = {}
    for label, runner in (("legacy", run_legacy), ("packed", run_packed)):
        runner(circ, faults, patterns)  # warm-up: allocator + caches
        chosen = min(
            (runner(circ, faults, patterns) for _ in range(repeats)),
            key=lambda r: r["fsim"] + r["adi"] + r["order"],
        )
        best[label] = chosen
    if not np.array_equal(best["legacy"]["adi_values"],
                          best["packed"]["adi_values"]):
        raise AssertionError(f"{scenario.name}: ADI values differ")
    if best["legacy"]["permutation"] != best["packed"]["permutation"]:
        raise AssertionError(f"{scenario.name}: dynamic orders differ")

    def stage_sum(timings: Dict, stages) -> float:
        return sum(timings[s] for s in stages)

    legacy_stage = stage_sum(best["legacy"], ("adi", "order"))
    packed_stage = stage_sum(best["packed"], ("adi", "order"))
    legacy_total = stage_sum(best["legacy"], ("fsim", "adi", "order"))
    packed_total = stage_sum(best["packed"], ("fsim", "adi", "order"))
    return {
        "scenario": scenario.name,
        "num_gates": circ.num_gates,
        "num_faults": len(faults),
        "num_patterns": patterns.num_patterns,
        "legacy_seconds": {
            k: best["legacy"][k] for k in ("fsim", "adi", "order")
        },
        "packed_seconds": {
            k: best["packed"][k] for k in ("fsim", "adi", "order")
        },
        "adi_order_speedup": (
            legacy_stage / packed_stage if packed_stage else float("inf")
        ),
        "end_to_end_speedup": (
            legacy_total / packed_total if packed_total else float("inf")
        ),
        "gated": scenario.gated,
    }


def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    scenarios = QUICK_SCENARIOS if quick else SCENARIOS
    repeats = 2 if quick else 3
    rows = [run_scenario(s, repeats=repeats) for s in scenarios]
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps({
        "acceptance_speedup": ACCEPTANCE_SPEEDUP,
        "gate_stage": "adi+order",
        "quick": quick,
        "rows": rows,
    }, indent=2) + "\n")

    header = (f"{'scenario':22s} {'gates':>6s} {'faults':>7s} {'pats':>5s} "
              f"{'leg adi+ord':>12s} {'pkd adi+ord':>12s} "
              f"{'stage':>7s} {'e2e':>7s}")
    print(header)
    print("-" * len(header))
    for row in rows:
        leg = row["legacy_seconds"]
        pkd = row["packed_seconds"]
        print(f"{row['scenario']:22s} {row['num_gates']:6d} "
              f"{row['num_faults']:7d} {row['num_patterns']:5d} "
              f"{leg['adi'] + leg['order']:11.3f}s "
              f"{pkd['adi'] + pkd['order']:11.3f}s "
              f"{row['adi_order_speedup']:6.1f}x "
              f"{row['end_to_end_speedup']:6.1f}x")
    print(f"\nwrote {RESULTS_PATH}")

    failed = [
        row for row in rows
        if row["gated"] and row["adi_order_speedup"] < ACCEPTANCE_SPEEDUP
    ]
    if failed:
        print(f"FAIL: gated scenarios under {ACCEPTANCE_SPEEDUP}x on "
              f"ADI+ordering: {[r['scenario'] for r in failed]}")
        return 1
    return 0


# -- pytest-benchmark integration --------------------------------------------

@pytest.fixture(scope="module", params=SCENARIOS, ids=lambda s: s.name)
def scenario_data(request):
    return request.param, build_scenario(request.param)


@pytest.mark.parametrize("pipeline", ("legacy", "packed"))
def test_bench_order_stage(benchmark, scenario_data, pipeline):
    __, (circ, faults, patterns) = scenario_data
    runner = run_legacy if pipeline == "legacy" else run_packed
    benchmark(runner, circ, faults, patterns)


def test_pipelines_bit_identical(scenario_data):
    scenario, (circ, faults, patterns) = scenario_data
    legacy = run_legacy(circ, faults, patterns)
    packed = run_packed(circ, faults, patterns)
    assert np.array_equal(legacy["adi_values"], packed["adi_values"]), \
        scenario.name
    assert legacy["permutation"] == packed["permutation"], scenario.name


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
