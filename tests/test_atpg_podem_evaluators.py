"""PODEM's compiled dual-rail evaluators against the 3-valued reference.

Every evaluator must decode to :func:`eval_gate3` applied to the good copy
and to the faulty copy separately.  Arities 1-4 run over every
(good, faulty) pair per input; arities 5-9 use seeded samples.  The fault
site wrappers are held to the same reference with the stuck value put
into the faulty copy only: on the output for a stem fault, on each pin in
turn for a branch fault.
"""

import functools
import itertools
import random

import pytest

from repro.atpg.podem import (
    branch_fault_evaluator,
    gate_evaluator,
    pair_code,
    pair_values,
    stem_fault_evaluator,
)
from repro.circuit import GateType
from repro.sim.threeval import X, eval_gate3

VALUES = (0, 1, X)
PAIRS = [(good, faulty) for good in VALUES for faulty in VALUES]
MULTI_INPUT = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
               GateType.XOR, GateType.XNOR)
SAMPLES = 300


def _arities(gtype):
    if gtype in (GateType.CONST0, GateType.CONST1):
        return (0,)
    if gtype in (GateType.BUF, GateType.NOT):
        return (1,)
    return range(1, 10)


GATES = [(gtype, arity) for gtype in GateType if gtype != GateType.INPUT
         for arity in _arities(gtype)]
PIN_GATES = [(gtype, arity) for gtype, arity in GATES if arity > 0]


def _ids(case):
    gtype, arity = case
    return f"{gtype.name}{arity}"


def _input_pairs(arity):
    """Every combination of input pairs up to arity 4, else samples."""
    if arity <= 4:
        return itertools.product(PAIRS, repeat=arity)
    rng = random.Random(f"podem-evaluators:{arity}")
    return [tuple(rng.choice(PAIRS) for _ in range(arity))
            for _ in range(SAMPLES)]


@functools.lru_cache(maxsize=None)
def _eval3(gtype, values):
    """The reference, memoized: the loops below repeat input tuples."""
    return eval_gate3(gtype, values)


def _bound(arity):
    """A code array and scattered, descending fanin ids into it."""
    fanin = tuple(3 + 2 * k for k in reversed(range(arity)))
    return [pair_code(X, X)] * (4 + 2 * arity), fanin


def _load(codes, fanin, inputs):
    """Write the input pairs to ``codes``; return the good and faulty
    input values."""
    for node, (good, faulty) in zip(fanin, inputs):
        codes[node] = pair_code(good, faulty)
    return (tuple(good for good, _ in inputs),
            tuple(faulty for _, faulty in inputs))


def test_code_table():
    # Two bits per copy, good copy low: X = 00, 0 = 01, 1 = 10.
    assert pair_code(X, X) == 0b0000
    assert pair_code(0, X) == 0b0001
    assert pair_code(1, X) == 0b0010
    assert pair_code(X, 0) == 0b0100
    assert pair_code(X, 1) == 0b1000
    assert pair_code(1, 0) == 0b0110
    assert pair_code(0, 1) == 0b1001
    for good, faulty in PAIRS:
        assert pair_values(pair_code(good, faulty)) == (good, faulty)


@pytest.mark.parametrize("case", GATES, ids=_ids)
def test_gate_matches_eval_gate3_on_each_copy(case):
    gtype, arity = case
    codes, fanin = _bound(arity)
    evaluate = gate_evaluator(gtype, fanin, codes)
    for inputs in _input_pairs(arity):
        good, faulty = _load(codes, fanin, inputs)
        expected = (_eval3(gtype, good), _eval3(gtype, faulty))
        assert pair_values(evaluate()) == expected, inputs


@pytest.mark.parametrize("stuck", (0, 1))
@pytest.mark.parametrize("case", GATES, ids=_ids)
def test_stem_fault_forces_the_faulty_copy(case, stuck):
    gtype, arity = case
    codes, fanin = _bound(arity)
    evaluate = stem_fault_evaluator(gate_evaluator(gtype, fanin, codes),
                                    stuck)
    for inputs in _input_pairs(arity):
        good, _ = _load(codes, fanin, inputs)
        assert pair_values(evaluate()) == (_eval3(gtype, good), stuck), inputs


@pytest.mark.parametrize("stuck", (0, 1))
@pytest.mark.parametrize("case", PIN_GATES, ids=_ids)
def test_branch_fault_substitutes_one_pin(case, stuck):
    gtype, arity = case
    codes, fanin = _bound(arity)
    evaluators = [branch_fault_evaluator(gtype, fanin, pin, stuck, codes)
                  for pin in range(arity)]
    for inputs in _input_pairs(arity):
        good, faulty = _load(codes, fanin, inputs)
        good_out = _eval3(gtype, good)
        for pin, evaluate in enumerate(evaluators):
            pinned = faulty[:pin] + (stuck,) + faulty[pin + 1:]
            expected = (good_out, _eval3(gtype, pinned))
            assert pair_values(evaluate()) == expected, (pin, inputs)


@pytest.mark.parametrize("gtype", MULTI_INPUT, ids=lambda g: g.name)
def test_repeated_fanin_faults_only_the_named_pin(gtype):
    # A gate reading one signal on two pins: a branch fault on pin 1
    # must leave pin 0's copy of the same signal fault-free.
    codes = [pair_code(X, X)] * 2
    evaluate = branch_fault_evaluator(gtype, (0, 0, 1), 1, 0, codes)
    for a, b in itertools.product(PAIRS, repeat=2):
        codes[:] = [pair_code(*a), pair_code(*b)]
        expected = (_eval3(gtype, (a[0], a[0], b[0])),
                    _eval3(gtype, (a[1], 0, b[1])))
        assert pair_values(evaluate()) == expected, (a, b)
