"""Defect diagnosis and tester-time accounting on a full-scan circuit.

Closes the loop on the paper's motivation: generate an ADI-ordered test
set, build a fault dictionary, "manufacture" some defective chips by
injecting faults, measure how many tests (and scan cycles) each defect
needs before it first fails, then locate the defect from its pass/fail
signature.

Run:  python examples/defect_diagnosis.py
"""

from repro.adi import ORDERS, compute_adi, select_u
from repro.atpg import TestGenConfig, generate_tests
from repro.circuit import compile_circuit, full_scan_extract, parse_bench
from repro.circuit.scan_chain import (
    expected_cycles_to_detection,
    make_scan_plan,
)
from repro.diagnosis import (
    build_pass_fail_dictionary,
    diagnose,
    expected_tests_to_first_fail,
    inject_and_observe,
)
from repro.faults import collapsed_fault_list
from repro.utils.bitvec import iter_bits

BENCH = """
# small full-scan design: 3 PIs, 4 state bits
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(out)
q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)
q3 = DFF(d3)
na = NOT(a)
d0 = XOR(q0, a)
t1 = AND(q0, a)
d1 = XOR(q1, t1)
sel = NAND(b, q1)
d2 = NOR(c, sel)
d3 = OR(q2, t1)
m1 = AND(q3, na)
m2 = AND(q2, q1)
out = OR(m1, m2)
"""


def main():
    sequential = parse_bench(BENCH, name="dut")
    comb, scan_info = full_scan_extract(sequential)
    circ = compile_circuit(comb)
    faults = collapsed_fault_list(circ)
    print(f"{circ.name}: {circ.num_inputs} scan-view inputs "
          f"({len(scan_info.pseudo_inputs)} state bits), "
          f"{len(faults)} target faults")

    # ADI-ordered test generation (dynm: the steep-curve order).
    selection = select_u(circ, faults, seed=21)
    adi = compute_adi(circ, faults, selection.patterns)
    order = ORDERS["dynm"](adi)
    tests = generate_tests(
        circ, [faults[i] for i in order], TestGenConfig(seed=21)
    ).tests
    print(f"generated {tests.num_patterns} tests (Fdynm order)")

    dictionary = build_pass_fail_dictionary(circ, faults, tests)
    names = [circ.names[i] for i in range(circ.num_inputs)]
    plan = make_scan_plan(names, scan_info)
    firsts = [
        next(iter_bits(mask))
        for mask in dictionary.fail_matrix.to_bigints() if mask
    ]
    print(f"expected tests to first fail:  "
          f"{expected_tests_to_first_fail(dictionary):.2f}")
    print(f"expected tester cycles to detection "
          f"({plan.chain_length}-bit scan chain): "
          f"{expected_cycles_to_detection(plan, firsts):.1f}")

    # "Manufacture" three defective chips and diagnose them.
    print("\ndiagnosis of three defective chips:")
    for fault in (faults[3], faults[len(faults) // 2], faults[-4]):
        observed = inject_and_observe(circ, fault, tests)
        report = diagnose(dictionary, observed, max_candidates=5)
        failing = [t for t in range(tests.num_patterns)
                   if (observed >> t) & 1]
        located = report.exact_matches()
        print(f"  defect {fault.describe(circ):24s} fails "
              f"{len(failing):2d} tests, first at t{failing[0] if failing else '-'};"
              f" candidates: "
              + ", ".join(f.describe(circ) for f in located[:3]))


if __name__ == "__main__":
    main()
