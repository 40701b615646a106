"""Golden search traces: PODEM's decisions on fixed circuits are pinned.

Each case runs :meth:`PodemEngine.run` over every collapsed fault of one
circuit and hashes the ``(status, cube, backtracks, decisions)`` sequence.
Any change to implication, objective selection, backtrace or their
tie-breaks moves at least one backtrack or decision count and therefore
the digest, so an engine rewrite that claims "same search" is held to it.

The cases cover the search's distinct exits: a budgeted run where
ABORTED appears, an unbudgeted run that has to exhaust the decision tree
to prove faults UNDETECTABLE, the c17 fixture, a crafted circuit with
constant gates, repeated fanin and 3-4 input XOR/XNOR gates, and the
stuck-at circuit of perfbench's ``cold_atpg`` workload (12 inputs, 120
gates, 6 outputs) at the default limit, where all three statuses occur.
"""

import hashlib
from collections import Counter

import pytest

from repro.atpg import PodemEngine
from repro.circuit import (
    Circuit,
    GateType,
    GeneratorSpec,
    compile_circuit,
    generate_circuit,
)
from repro.faults import collapsed_fault_list

from helpers import generated_circuit


def _const_xor_circuit():
    c = Circuit(name="const_xor")
    for name in "abcdef":
        c.add_input(name)
    c.add_gate("k0", GateType.CONST0, ())
    c.add_gate("k1", GateType.CONST1, ())
    c.add_gate("x3", GateType.XOR, ("a", "b", "c"))
    c.add_gate("n4", GateType.XNOR, ("b", "c", "d", "e"))
    c.add_gate("g1", GateType.AND, ("x3", "k1"))
    c.add_gate("g2", GateType.OR, ("n4", "k0"))
    c.add_gate("g3", GateType.NAND, ("a", "k0"))
    c.add_gate("d2", GateType.XOR, ("f", "f", "c"))
    c.add_gate("x4", GateType.XOR, ("g1", "g2", "d2", "k1"))
    c.add_gate("y1", GateType.XNOR, ("x4", "g3", "d"))
    c.add_gate("y2", GateType.NOR, ("g2", "e", "k0"))
    c.add_gate("y3", GateType.NOT, ("k0",))
    c.add_gate("y4", GateType.AND, ("k1", "f", "a"))
    for out in ("y1", "y2", "y3", "y4"):
        c.add_output(out)
    return compile_circuit(c)


#: name -> (circuit factory, backtrack limit, status counts, sha256).
GOLDEN = {
    "gen7_limit20": (
        lambda: generated_circuit(7, num_inputs=10, num_gates=80,
                                  num_outputs=4, hardness=0.2),
        20,
        {"success": 172, "undetectable": 44, "aborted": 78},
        "76a1c69aaea8e4863dddf3bdaaed18f5b9e5dc42c3ea1616455782541f6176b1",
    ),
    "gen3_unbounded": (
        lambda: generated_circuit(3, num_inputs=10, num_gates=80,
                                  num_outputs=4, hardness=0.2),
        None,
        {"success": 220, "undetectable": 79},
        "fc354d1f2581a0faad19640a449542d98a564433f75e5f6876bbb7b273cc7f97",
    ),
    "c17_default": (
        None,  # the c17 fixture
        200,
        {"success": 22},
        "b59982841553a095e70ad624f83228edf73641429dcb86a3d1ddb2c0da73fca2",
    ),
    "atpg_sa42_limit200": (
        lambda: generate_circuit(GeneratorSpec(
            name="atpg_sa42", num_inputs=12, num_gates=120, num_outputs=6,
            seed=42)),
        200,
        {"success": 375, "undetectable": 41, "aborted": 36},
        "d30410f57463b40c2ca71270436d88c73d360128132f1320ca6efa17569aeecb",
    ),
    "const_xor_unbounded": (
        _const_xor_circuit,
        None,
        {"success": 62, "undetectable": 10},
        "fde9659329bf45dedfda177ddded7edaa783b5fd56beca3d6981cd9f436cd9de",
    ),
}


def _trace(circ, backtrack_limit):
    engine = PodemEngine(circ)
    lines = []
    statuses = Counter()
    for fault in collapsed_fault_list(circ):
        result = engine.run(fault, backtrack_limit=backtrack_limit)
        cube = ("-" if result.cube is None
                else "".join("01X"[v] for v in result.cube))
        lines.append(f"{result.status.value} {cube} "
                     f"{result.backtracks} {result.decisions}")
        statuses[result.status.value] += 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return dict(statuses), digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_search_trace_matches_golden(name, c17_circuit):
    factory, limit, statuses, digest = GOLDEN[name]
    circ = c17_circuit if factory is None else factory()
    got_statuses, got_digest = _trace(circ, limit)
    assert got_statuses == statuses
    assert got_digest == digest
