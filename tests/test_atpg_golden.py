"""Golden test-generation runs: the ordered loop's outputs are pinned.

Each case runs one generator (:func:`generate_tests` or
:func:`generate_transition_tests`) over a circuit's collapsed target list
and hashes everything the run returns: the test words (launch and
capture words for pairs), the status map in order, ``detected_per_test``,
``targeted_faults``, ``podem_calls`` and ``backtracks``.  Any change to
the target walk, the fill-RNG draws, the launch pool, the launch
fallback or the fault dropping moves the digest.

The cases cover the loop's distinct exits: the default backtrack limit
on ``lion_like``, a budgeted run where faults abort, an unbudgeted run
that proves faults undetectable, and two crafted circuits whose
transition targets take the PODEM launch fallback -- one where it
succeeds and one where it fails and the fault must end ABORTED.
"""

import hashlib

import pytest

from repro.atpg import TestGenConfig, generate_tests, generate_transition_tests
from repro.circuit import Circuit, GateType, compile_circuit, lion_like
from repro.faults import FaultStatus
from repro.faults.registry import fault_model

from helpers import generated_circuit


def _wide_and_circuit():
    """``a = AND(i0..i11)`` observed directly and through ``XOR(a, i0)``.

    A random launch vector sets ``a = 1`` with probability 1/4096, so the
    launch pool has none and the slow-to-fall targets at ``a`` take the
    PODEM launch fallback, which succeeds.
    """
    c = Circuit(name="wide_and")
    inputs = [c.add_input(f"i{k}") for k in range(12)]
    c.add_gate("a", GateType.AND, inputs)
    c.add_gate("y", GateType.XOR, ("a", "i0"))
    c.add_output("a")
    c.add_output("y")
    return compile_circuit(c)


def _launch_fail_circuit():
    """``s = OR(a, NOT a)`` feeding ``y = XOR(AND(s, b), c)``.

    ``s`` is constant 1: slow-to-rise at ``s`` has a capture test (``s``
    stuck-at-0 is detectable) but needs ``s = 0`` at launch, which no
    vector gives, so the launch fallback fails.
    """
    c = Circuit(name="launch_fail")
    for name in "abc":
        c.add_input(name)
    c.add_gate("na", GateType.NOT, ("a",))
    c.add_gate("s", GateType.OR, ("a", "na"))
    c.add_gate("g", GateType.AND, ("s", "b"))
    c.add_gate("y", GateType.XOR, ("g", "c"))
    c.add_output("y")
    return compile_circuit(c)


CIRCUITS = {
    "lion": (lion_like, 200),
    "gen7_limit20": (
        lambda: generated_circuit(7, num_inputs=10, num_gates=80,
                                  num_outputs=4, hardness=0.2),
        20,
    ),
    "gen3_unbounded": (
        lambda: generated_circuit(3, num_inputs=10, num_gates=80,
                                  num_outputs=4, hardness=0.2),
        None,
    ),
    "wide_and": (_wide_and_circuit, 200),
    "launch_fail": (_launch_fail_circuit, 200),
}

GENERATORS = {
    "stuck_at": generate_tests,
    "transition": generate_transition_tests,
}

#: (circuit, model, fill) -> (tests, detected, undetectable, aborted,
#: podem_calls, sha256).
GOLDEN = {
    ("lion", "stuck_at", "random"): (9, 40, 0, 0, 9,
        "88f763ad62aee2c2958d0a7ab54c289b6997a379a8b5cc5736b3687bd097cbc6"),
    ("lion", "stuck_at", "zero"): (12, 40, 0, 0, 12,
        "06345dc22aaf208e4ff8114e8b900275370cdb909e5929ef49128dda849df1fb"),
    ("lion", "transition", "random"): (17, 52, 0, 0, 17,
        "b752ae7b80431ecdcf9b5f6cc9f6a14eb0398dd4831a77a9a82593de45d00b8f"),
    ("lion", "transition", "zero"): (18, 52, 0, 0, 18,
        "80b3d4a5bc43369e407bbb8b38ceec4f4dbbef49bbbabb1bffa4c7aa99c71360"),
    ("gen7_limit20", "stuck_at", "random"): (31, 177, 44, 73, 149,
        "0dcc611780bb79d9d1aa46ece7a622a55f85b62cee63c435ae064d7c4d1d157b"),
    ("gen7_limit20", "stuck_at", "zero"): (31, 177, 44, 73, 148,
        "ec7a73374ee9cdd9daa8388d14b9e4e77dc8258e538a78a07687f0a35ec0c7bd"),
    ("gen7_limit20", "transition", "random"): (53, 254, 67, 111, 231,
        "6c5ed5cc913575b97244c28a5036ba3bd6b719cadddcbda08bf741990d50582f"),
    ("gen7_limit20", "transition", "zero"): (60, 254, 67, 111, 238,
        "5e6d2b7aa121a131da07434273e6bc7518bcae07cf1eedef83c05006c5440719"),
    ("gen3_unbounded", "stuck_at", "random"): (28, 220, 79, 0, 107,
        "a83aaba305c4cc8ee9b2c191b3fdc4707073498b1fddb8ea7f3cb28d19d674b8"),
    ("gen3_unbounded", "stuck_at", "zero"): (30, 220, 79, 0, 109,
        "cbb54ef79ca79c43589da6e3b7e226b62c2005839daa48d45500b46f670fda5a"),
    ("gen3_unbounded", "transition", "random"): (61, 331, 121, 0, 182,
        "edb0dc5a15816230054b8e1e473207eee83597528f55d93cc3e3e75758af8150"),
    ("gen3_unbounded", "transition", "zero"): (67, 331, 121, 0, 188,
        "e90a254f4c33539ad24644cee7721281ca1bd88dc7c9a5b0c2657fb6724684ba"),
    ("wide_and", "transition", "random"): (17, 34, 0, 0, 18,
        "63cc2ac32d037dc789c66e47ac0d9ebc294313f4291bd072ad8bc556f49e4c09"),
    ("wide_and", "transition", "zero"): (17, 34, 0, 0, 18,
        "24d42381f53179857c4157eed81e9702c02b8479ccf254b0d938a1140436636e"),
    ("launch_fail", "transition", "random"): (5, 10, 5, 1, 12,
        "9473583f980a4840be6f1074111def2e55ae6637f29aab26bf7380ed0d12cbf9"),
    ("launch_fail", "transition", "zero"): (5, 10, 5, 1, 12,
        "585cab7cc407f2d13db102eb2806c209b99734296866afe3d7abbb4264ea5f0d"),
}


def _run(circuit, model, fill):
    factory, limit = CIRCUITS[circuit]
    circ = factory()
    faults = fault_model(model).target_faults(circ)
    config = TestGenConfig(backtrack_limit=limit, fill=fill, seed=5)
    return circ, faults, GENERATORS[model](circ, faults, config)


def _digest(model, result):
    codec = fault_model(model).fault_to_json
    tests = result.tests
    if model == "transition":
        words = [list(tests.launch.words), list(tests.capture.words)]
    else:
        words = list(tests.words)
    parts = [
        repr(words),
        repr([(codec(f), s.value) for f, s in result.status.items()]),
        repr(list(result.detected_per_test)),
        repr([codec(f) for f in result.targeted_faults]),
        repr((result.podem_calls, result.backtracks)),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_run_matches_golden(key):
    circuit, model, fill = key
    tests, detected, undetectable, aborted, calls, digest = GOLDEN[key]
    __, faults, result = _run(circuit, model, fill)
    assert list(result.status) == list(faults)
    assert (result.num_tests, result.num_detected, result.num_undetectable,
            result.num_aborted, result.podem_calls) == (
        tests, detected, undetectable, aborted, calls)
    assert _digest(model, result) == digest


@pytest.mark.parametrize("fill", ["random", "zero"])
def test_launch_fallback_succeeds(fill):
    circ, faults, result = _run("wide_and", "transition", fill)
    assert (result.num_tests, result.podem_calls) == (17, 18)
    # The extra PODEM call justified a = 1 at launch: some pair has it.
    a = circ.node_of("a")
    assert any(fault.node == a and fault.initial_value == 1
               for fault in result.targeted_faults)
    assert result.num_aborted == 0


@pytest.mark.parametrize("fill", ["random", "zero"])
def test_launch_fallback_failure_aborts(fill):
    circ, faults, result = _run("launch_fail", "transition", fill)
    assert (result.num_tests, result.num_aborted,
            result.podem_calls) == (5, 1, 12)
    s = circ.node_of("s")
    slow_to_rise = [f for f in faults if f.node == s and f.pin == -1
                    and f.initial_value == 0]
    assert len(slow_to_rise) == 1
    # A failed launch justification proves nothing about the target:
    # it must stay ABORTED, never become UNDETECTABLE.
    assert result.status[slow_to_rise[0]] == FaultStatus.ABORTED


def test_fault_efficiency_discounts_only_proven_faults():
    __, faults, result = _run("gen7_limit20", "stuck_at", "random")
    assert result.num_undetectable > 0 and result.num_aborted > 0
    assert result.fault_efficiency() == pytest.approx(
        result.num_detected / (len(faults) - result.num_undetectable))
    # Aborted faults still count against the run; proven ones do not.
    assert result.fault_coverage() < result.fault_efficiency() < 1.0


def test_fault_efficiency_all_undetectable_is_one():
    circ, __, result = _run("gen3_unbounded", "stuck_at", "random")
    redundant = [f for f, status in result.status.items()
                 if status == FaultStatus.UNDETECTABLE]
    rerun = generate_tests(circ, redundant, TestGenConfig(backtrack_limit=None))
    assert rerun.num_undetectable == len(redundant) > 0
    assert rerun.num_tests == 0
    assert rerun.fault_coverage() == 0.0
    assert rerun.fault_efficiency() == 1.0
