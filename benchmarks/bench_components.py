"""Component micro-benchmarks: the substrate operations whose cost
determines whether the whole reproduction is tractable in Python."""

import dataclasses

import pytest

from repro.adi import compute_adi, coverage_curve, fdynm, select_u
from repro.atpg import PodemEngine, compute_scoap
from repro.experiments import build_circuit
from repro.faults import collapse_faults, collapsed_fault_list, full_universe
from repro.fsim import detection_words
from repro.sim import PatternSet, simulate

CIRCUIT = "irs298"


@pytest.fixture(scope="module")
def circ():
    return build_circuit(CIRCUIT)


@pytest.fixture(scope="module")
def faults(circ):
    return collapsed_fault_list(circ)


def test_bench_logic_sim_1024_patterns(benchmark, circ):
    patterns = PatternSet.random(circ.num_inputs, 1024, seed=1)
    benchmark(simulate, circ, patterns)


def test_bench_fault_collapse(benchmark, circ):
    benchmark(collapse_faults, circ)


def test_bench_universe_enumeration(benchmark, circ):
    benchmark(full_universe, circ)


def test_bench_ppsfp_no_drop_256_patterns(benchmark, circ, faults):
    patterns = PatternSet.random(circ.num_inputs, 256, seed=2)
    benchmark(detection_words, circ, faults, patterns)


def test_bench_coverage_curve_1024_patterns(benchmark, circ, faults):
    patterns = PatternSet.random(circ.num_inputs, 1024, seed=3)
    benchmark(coverage_curve, circ, faults, patterns)


def test_bench_u_selection(benchmark, circ, faults):
    benchmark(select_u, circ, faults, seed=5, max_vectors=4096)


def test_bench_adi_computation(benchmark, circ, faults):
    selection = select_u(circ, faults, seed=5, max_vectors=4096)
    benchmark(compute_adi, circ, faults, selection.patterns)


def test_bench_fdynm(benchmark, circ, faults):
    selection = select_u(circ, faults, seed=5, max_vectors=4096)
    adi = compute_adi(circ, faults, selection.patterns)

    def fresh_result():
        # The placement sequence is cached on the result: reusing one
        # result would time a lookup from the second round on.
        return (dataclasses.replace(adi),), {}

    benchmark.pedantic(fdynm, setup=fresh_result, rounds=5)


def test_bench_scoap(benchmark, circ):
    benchmark(compute_scoap, circ)


def test_bench_podem_all_faults(benchmark, circ, faults):
    engine = PodemEngine(circ)

    def run_all():
        return [engine.run(f, backtrack_limit=50).status for f in faults]

    benchmark.pedantic(run_all, rounds=1, iterations=1)
