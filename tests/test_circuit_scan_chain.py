"""Tests for scan-chain serialization and cycle accounting."""

import pytest

from repro.circuit import Circuit, GateType, compile_circuit, full_scan_extract
from repro.circuit.scan_chain import test_application_cycles as application_cycles
from repro.circuit.scan_chain import (
    ScanPlan,
    expected_cycles_to_detection,
    make_scan_plan,
    scan_in_sequence,
)
from repro.errors import CircuitStructureError


@pytest.fixture(scope="module")
def extracted():
    c = Circuit(name="seq")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("n1", GateType.XOR, ("q1", "a"))
    c.add_gate("n2", GateType.AND, ("q2", "b"))
    c.add_dff("q1", "n1")
    c.add_dff("q2", "n2")
    c.add_gate("y", GateType.OR, ("q1", "q2"))
    c.add_output("y")
    comb, info = full_scan_extract(c)
    circ = compile_circuit(comb)
    return circ, info


class TestScanPlan:
    def test_default_chain_order(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        assert plan.chain_order == ("q1", "q2")
        assert plan.pi_names == ("a", "b")
        assert plan.chain_length == 2

    def test_custom_chain_order(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info, chain_order=["q2", "q1"])
        assert plan.chain_order == ("q2", "q1")

    def test_bad_chain_order_rejected(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        with pytest.raises(CircuitStructureError):
            make_scan_plan(names, info, chain_order=["q1", "nope"])

    def test_cycles_per_test(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        assert plan.cycles_per_test() == 3  # 2 shifts + capture
        assert plan.cycles_to_test(0) == 3
        assert plan.cycles_to_test(4) == 15

    def test_negative_test_index_rejected(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        with pytest.raises(CircuitStructureError):
            plan.cycles_to_test(-1)


class TestScanInSequence:
    def test_split(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        # vector order: a, b, q1, q2
        shift, pis = scan_in_sequence(plan, names, [1, 0, 1, 0])
        assert pis == {"a": 1, "b": 0}
        # q2 is last in the chain order, so it shifts in first.
        assert shift == [0, 1]

    def test_width_checked(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        with pytest.raises(CircuitStructureError):
            scan_in_sequence(plan, names, [1, 0])


class TestCycleAccounting:
    def test_full_set_cycles(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        assert application_cycles(plan, 0) == 0
        # 10 tests * 3 cycles + final 2-cycle shift-out.
        assert application_cycles(plan, 10) == 32

    def test_negative_count_rejected(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        with pytest.raises(CircuitStructureError):
            application_cycles(plan, -1)

    def test_expected_cycles(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        # Chips failing at tests 0 and 4: (3 + 15) / 2.
        assert expected_cycles_to_detection(plan, [0, 4]) == 9.0

    def test_expected_cycles_needs_data(self, extracted):
        circ, info = extracted
        names = [circ.names[i] for i in range(circ.num_inputs)]
        plan = make_scan_plan(names, info)
        with pytest.raises(CircuitStructureError):
            expected_cycles_to_detection(plan, [])

    def test_steeper_order_saves_cycles_end_to_end(self):
        """Tester-cycles version of the paper's application: a steeper
        test order reduces expected cycles to first detection."""
        from repro.atpg import TestGenConfig as GenConfig
        from repro.atpg import generate_tests, reorder_by_detection
        from repro.circuit import lion_like
        from repro.diagnosis import build_pass_fail_dictionary
        from repro.faults import collapsed_fault_list
        from repro.utils.bitvec import iter_bits

        circ = lion_like()
        faults = collapsed_fault_list(circ)
        tests = generate_tests(circ, faults, GenConfig(seed=3)).tests
        steep = reorder_by_detection(circ, faults, tests, greedy=True)
        plan = ScanPlan(pi_names=("x1", "x0"), chain_order=("s1", "s0"))

        def mean_cycles(test_set):
            dictionary = build_pass_fail_dictionary(circ, faults, test_set)
            firsts = [
                next(iter_bits(m))
                for m in dictionary.fail_matrix.to_bigints() if m
            ]
            return expected_cycles_to_detection(plan, firsts)

        assert mean_cycles(steep) <= mean_cycles(tests)
