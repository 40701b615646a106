"""End-to-end integration tests: the full paper pipeline on small
circuits, cross-checking every stage against independent references."""

import pytest

from repro.adi import (
    ORDERS,
    ave_from_curve,
    compute_adi,
    coverage_curve,
    select_u,
)
from repro.atpg import TestGenConfig, generate_tests
from repro.circuit import (
    compile_circuit,
    full_scan_extract,
    lion_like,
    parse_bench,
    to_netlist,
    write_bench,
)
from repro.faults import FaultStatus, collapsed_fault_list
from repro.fsim import detects_serial
from repro.sim import PatternSet

from helpers import generated_circuit


class TestFullPipelineLion:
    """The complete worked-example pipeline with serial-sim verification."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        circ = lion_like()
        faults = collapsed_fault_list(circ)
        selection = select_u(circ, faults, patterns=PatternSet.exhaustive(4),
                             target_coverage=1.0)
        adi = compute_adi(circ, faults, selection.patterns)
        results = {}
        for name in ("orig", "dynm", "0dynm", "incr0"):
            order = ORDERS[name](adi)
            results[name] = generate_tests(
                circ, [faults[i] for i in order], TestGenConfig(seed=3)
            )
        return circ, faults, adi, results

    def test_all_orders_reach_full_coverage(self, pipeline):
        __, faults, __, results = pipeline
        for name, result in results.items():
            assert result.fault_coverage() == 1.0, name

    def test_every_vector_detects_its_target_serially(self, pipeline):
        circ, __, __, results = pipeline
        for result in results.values():
            for p, target in enumerate(result.targeted_faults):
                vec = result.tests.vector(p)
                assert detects_serial(circ, vec, target)

    def test_test_sets_verified_by_independent_curve(self, pipeline):
        circ, faults, __, results = pipeline
        for result in results.values():
            curve = coverage_curve(circ, faults, result.tests)
            assert curve[-1] == result.num_detected

    def test_detected_per_test_matches_curve(self, pipeline):
        circ, faults, __, results = pipeline
        for result in results.values():
            curve = coverage_curve(circ, faults, result.tests)
            rebuilt = []
            prev = 0
            for value in curve:
                rebuilt.append(value - prev)
                prev = value
            assert rebuilt == result.detected_per_test

    def test_ave_computable_for_all_orders(self, pipeline):
        circ, faults, __, results = pipeline
        aves = {
            name: ave_from_curve(coverage_curve(circ, faults, r.tests))
            for name, r in results.items()
        }
        assert all(v >= 1.0 for v in aves.values())


class TestBenchRoundTripPipeline:
    """Serialize a generated circuit to .bench, reload, and confirm the
    whole flow produces identical results — the file format carries all
    information the pipeline needs."""

    def test_identical_results_after_round_trip(self):
        circ = generated_circuit(77, num_inputs=8, num_gates=40,
                                 num_outputs=5)
        text = write_bench(to_netlist(circ))
        reloaded = compile_circuit(parse_bench(text, name=circ.name))

        def run(c):
            faults = collapsed_fault_list(c)
            selection = select_u(c, faults, seed=5, max_vectors=512)
            adi = compute_adi(c, faults, selection.patterns)
            order = ORDERS["0dynm"](adi)
            result = generate_tests(
                c, [faults[i] for i in order], TestGenConfig(seed=5)
            )
            return result.tests.words, result.num_tests

        assert run(circ) == run(reloaded)


class TestSequentialFlow:
    """Full-scan extraction feeding the pipeline (a mini s27-style flow)."""

    S27 = """
    INPUT(G0)
    INPUT(G1)
    INPUT(G2)
    INPUT(G3)
    OUTPUT(G17)
    G5 = DFF(G10)
    G6 = DFF(G11)
    G7 = DFF(G13)
    G14 = NOT(G0)
    G17 = NOT(G11)
    G8 = AND(G14, G6)
    G15 = OR(G12, G8)
    G16 = OR(G3, G8)
    G9 = NAND(G16, G15)
    G10 = NOR(G14, G11)
    G11 = NOR(G5, G9)
    G12 = NOR(G1, G7)
    G13 = NOR(G2, G12)
    """

    def test_s27_flow(self):
        sequential = parse_bench(self.S27, name="s27")
        comb, info = full_scan_extract(sequential)
        circ = compile_circuit(comb)
        assert circ.num_inputs == 7
        faults = collapsed_fault_list(circ)
        selection = select_u(circ, faults,
                             patterns=PatternSet.exhaustive(7),
                             target_coverage=1.0)
        adi = compute_adi(circ, faults, selection.patterns)
        order = ORDERS["0dynm"](adi)
        result = generate_tests(circ, [faults[i] for i in order],
                                TestGenConfig(seed=1, backtrack_limit=None))
        # s27's combinational logic is fully testable.
        assert result.num_undetectable == 0
        assert result.fault_coverage() == 1.0

    def test_s27_order_statuses_consistent(self):
        sequential = parse_bench(self.S27, name="s27")
        comb, __ = full_scan_extract(sequential)
        circ = compile_circuit(comb)
        faults = collapsed_fault_list(circ)
        result = generate_tests(circ, faults, TestGenConfig(seed=2))
        for fault, status in result.status.items():
            assert status in (FaultStatus.DETECTED, FaultStatus.UNDETECTABLE,
                              FaultStatus.ABORTED)
