"""Extension: tester time to first detection, in tests and scan cycles.

The paper motivates steep coverage curves by tester economics; this
benchmark converts the Table 7 story into the physical quantity — mean
scan cycles until a defective chip first fails — using the pass/fail
dictionary and a scan-chain plan whose length equals the circuit's
pseudo-input count (every suite circuit models full-scan logic).
"""

from repro.circuit.scan_chain import ScanPlan, expected_cycles_to_detection
from repro.diagnosis import build_pass_fail_dictionary
from repro.utils.bitvec import iter_bits
from repro.utils.tables import render_table

CIRCUITS = ("irs208", "irs298", "irs344")
ORDERS = ("orig", "dynm", "0dynm")


def _study(runner):
    rows = []
    means = {order: 0.0 for order in ORDERS}
    for name in CIRCUITS:
        prepared = runner.prepare(name)
        circ, faults = prepared.circuit, prepared.faults
        # Model: every input is a scan cell (fully synthetic full-scan
        # view); chain length = PI count.
        plan = ScanPlan(
            pi_names=(),
            chain_order=tuple(
                circ.names[i] for i in range(circ.num_inputs)
            ),
        )
        cycles = {}
        for order in ORDERS:
            tests = runner.testgen(name, order).tests
            dictionary = build_pass_fail_dictionary(circ, faults, tests)
            firsts = [
                next(iter_bits(mask))
                for mask in dictionary.fail_matrix.to_bigints() if mask
            ]
            cycles[order] = expected_cycles_to_detection(plan, firsts)
        base = cycles["orig"]
        rows.append(
            [name] + [f"{cycles[o]:.0f}" for o in ORDERS]
            + [f"{cycles['dynm'] / base:.3f}"]
        )
        for order in ORDERS:
            means[order] += cycles[order] / base / len(CIRCUITS)
    rows.append(
        ["average ratio"] + [f"{means[o]:.3f}" for o in ORDERS] + [""]
    )
    return rows, means


def test_tester_cycles_to_detection(benchmark, runner, record):
    rows, means = benchmark.pedantic(
        lambda: _study(runner), rounds=1, iterations=1
    )
    record(
        "tester_time",
        render_table(
            ["circuit"] + [f"{o} (cycles)" for o in ORDERS] + ["dynm ratio"],
            rows,
            title="Extension: expected scan cycles to first detection",
        ),
    )
    # The cycles story must mirror the AVE story: ADI orders detect
    # defects sooner than the original order.
    assert means["dynm"] < 1.0
    assert means["0dynm"] < 1.0
