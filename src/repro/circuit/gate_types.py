"""Gate library: types, truth semantics and algebraic properties.

The simulators and ATPG never look at gate names; everything they need is
derived from three properties captured here:

* ``controlling``  -- the input value that determines the output regardless
  of other inputs (0 for AND/NAND, 1 for OR/NOR, ``None`` for XOR/XNOR and
  single-input gates);
* ``inversion``    -- whether the gate inverts (NAND/NOR/NOT/XNOR);
* arity constraints -- NOT/BUF take exactly one input, CONST gates none.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Optional


class GateType(IntEnum):
    """Gate/node types.  ``INPUT`` marks primary-input nodes."""

    INPUT = 0
    BUF = 1
    NOT = 2
    AND = 3
    NAND = 4
    OR = 5
    NOR = 6
    XOR = 7
    XNOR = 8
    CONST0 = 9
    CONST1 = 10


#: Gate types that invert their "base" function (AND for NAND, OR for NOR,
#: BUF for NOT, XOR for XNOR).
INVERTING = frozenset({GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR})

#: Gate types with a controlling input value.
_CONTROLLING: dict[GateType, int] = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}

#: Types that require exactly one fanin.
SINGLE_INPUT = frozenset({GateType.BUF, GateType.NOT})

#: Types that require no fanin.
NO_INPUT = frozenset({GateType.INPUT, GateType.CONST0, GateType.CONST1})

#: Names accepted by the .bench parser, mapped to types.
BENCH_NAMES: dict[str, GateType] = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}


def controlling_value(gtype: GateType) -> Optional[int]:
    """Return the controlling input value of ``gtype`` or ``None``.

    A controlling value at any input fixes the gate output; XOR-family and
    one-input gates have none.
    """
    return _CONTROLLING.get(gtype)


def is_inverting(gtype: GateType) -> bool:
    """True for NOT/NAND/NOR/XNOR."""
    return gtype in INVERTING


def eval_gate(gtype: GateType, inputs: list[int]) -> int:
    """Evaluate a gate on scalar 0/1 inputs (reference semantics).

    This is the slow, obviously-correct oracle used by tests and by the
    serial simulator; the bit-parallel simulators implement the same truth
    functions on words.
    """
    if gtype == GateType.INPUT:
        raise ValueError("INPUT nodes have no evaluation function")
    if gtype == GateType.CONST0:
        return 0
    if gtype == GateType.CONST1:
        return 1
    if gtype == GateType.BUF:
        (a,) = inputs
        return a
    if gtype == GateType.NOT:
        (a,) = inputs
        return a ^ 1
    if not inputs:
        raise ValueError(f"{gtype.name} gate requires at least one input")
    if gtype == GateType.AND:
        return int(all(inputs))
    if gtype == GateType.NAND:
        return int(not all(inputs))
    if gtype == GateType.OR:
        return int(any(inputs))
    if gtype == GateType.NOR:
        return int(not any(inputs))
    if gtype == GateType.XOR:
        acc = 0
        for a in inputs:
            acc ^= a
        return acc
    if gtype == GateType.XNOR:
        acc = 1
        for a in inputs:
            acc ^= a
        return acc
    raise ValueError(f"unknown gate type {gtype!r}")
