"""PODEM's implication state against a fresh 3-valued simulation.

The engine keeps the values of both circuit copies incrementally: the
fault is inserted once per run, an input assignment propagates events
from the input, and a backtrack restores what a decision changed.  Here
every search runs with its state observed: after the fault is inserted
and after every input assignment and every undo the search makes, the
engine's pair codes must equal :func:`eval_gate3` run over each copy
afresh under the inputs assigned at that moment (the stuck value
inserted in the faulty copy), and its D set must be the nodes whose two
copies are defined and differ.

The circuits have constant gates, XOR/XNOR gates, repeated fanin and
reconvergent fanout.  Faults on a site that a constant drives matter
most: inserting one turns a defined faulty value into the other value,
so unlike an input assignment it can change gates whose two copies are
both already defined.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg import PodemEngine
from repro.atpg.podem import pair_code
from repro.circuit import Circuit, GateType, compile_circuit
from repro.faults import full_universe
from repro.sim.threeval import X, eval_gate3

from helpers import generated_circuit

GATE_TYPES = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
              GateType.XOR, GateType.XNOR, GateType.BUF, GateType.NOT,
              GateType.CONST0, GateType.CONST1)


def _reference(circ, fault, assigned):
    """(good, faulty) 3-valued values of every node under ``assigned``
    (input -> 0/1, every other input X), each copy simulated alone."""
    good = [X] * circ.num_nodes
    faulty = [X] * circ.num_nodes
    for pi, value in assigned.items():
        good[pi] = faulty[pi] = value
    if fault.is_stem and fault.node < circ.num_inputs:
        faulty[fault.node] = fault.value
    for node in range(circ.num_inputs, circ.num_nodes):
        gtype = circ.node_type[node]
        fanin = circ.fanin[node]
        good[node] = eval_gate3(gtype, [good[s] for s in fanin])
        values = [faulty[s] for s in fanin]
        if fault.is_branch and fault.node == node:
            values[fault.pin] = fault.value
        faulty[node] = (fault.value if fault.is_stem and fault.node == node
                        else eval_gate3(gtype, values))
    return good, faulty


def _check_state(engine, fault, assigned):
    good, faulty = _reference(engine.circ, fault, assigned)
    assert list(engine._codes) == [pair_code(g, f)
                                   for g, f in zip(good, faulty)]
    assert set(engine._d_nodes) == {
        node for node, (g, f) in enumerate(zip(good, faulty))
        if X not in (g, f) and g != f}


def observed_run(engine, fault, backtrack_limit):
    """Run the search on ``fault``, checking the state after the fault is
    inserted and after every assignment and undo.  Returns the result and
    the number of states checked."""
    assigned = []  # the decision stack as (input, value)
    checked = 0
    inject, assign, undo = engine._inject, engine._assign_pi, engine._undo

    def check():
        nonlocal checked
        _check_state(engine, fault, dict(assigned))
        checked += 1

    def observed_inject(*args):
        inject(*args)
        check()

    def observed_assign(pi, value, *args):
        outcome = assign(pi, value, *args)
        assigned.append((pi, value))
        check()
        return outcome

    def observed_undo(*args):
        undo(*args)
        assigned.pop()
        check()

    engine._inject = observed_inject
    engine._assign_pi = observed_assign
    engine._undo = observed_undo
    try:
        result = engine.run(fault, backtrack_limit=backtrack_limit)
    finally:
        del engine._inject, engine._assign_pi, engine._undo
    return result, checked


def _settled_by_constants(circ):
    """Nodes whose fault-free value is defined with every input at X."""
    good, __ = _reference(circ, full_universe(circ)[0], {})
    return {node for node, value in enumerate(good) if value != X}


def _fault_site(circ, fault):
    return fault.node if fault.is_stem else circ.fanin[fault.node][fault.pin]


def _constant_driven_circuit():
    """Constants drive stems, branches and settled gates.

    ``n1 = NOT(k0)`` and ``b1 = BUF(k1)`` are constant and branch; ``h``
    and ``e`` are settled by them alone, so a fault on ``n1``, ``b1`` or
    a constant pin changes gates whose two copies were already defined.
    """
    c = Circuit(name="constant_driven")
    for name in "abcd":
        c.add_input(name)
    c.add_gate("k0", GateType.CONST0, ())
    c.add_gate("k1", GateType.CONST1, ())
    c.add_gate("n1", GateType.NOT, ("k0",))
    c.add_gate("b1", GateType.BUF, ("k1",))
    c.add_gate("h", GateType.AND, ("n1", "b1"))
    c.add_gate("e", GateType.NOT, ("h",))
    c.add_gate("g1", GateType.OR, ("n1", "a"))
    c.add_gate("g2", GateType.AND, ("b1", "b", "k1"))
    c.add_gate("g3", GateType.NAND, ("k0", "c"))
    c.add_gate("g4", GateType.XOR, ("n1", "a", "b1"))
    c.add_gate("g5", GateType.NOR, ("g1", "g3", "d"))
    c.add_gate("g6", GateType.XNOR, ("h", "g4", "g2"))
    c.add_gate("y1", GateType.AND, ("g2", "g4", "e"))
    c.add_gate("y2", GateType.OR, ("g5", "g1", "e"))
    c.add_gate("y3", GateType.XNOR, ("g3", "n1", "c", "g6"))
    for out in ("e", "y1", "y2", "y3"):
        c.add_output(out)
    return compile_circuit(c)


def test_every_fault_of_constant_driven_circuit():
    circ = _constant_driven_circuit()
    settled = _settled_by_constants(circ)
    engine = PodemEngine(circ)
    faults = full_universe(circ)
    on_settled = [f for f in faults if _fault_site(circ, f) in settled]
    # Stem and branch faults on constant-settled sites are all here.
    assert any(f.is_stem for f in on_settled)
    assert any(f.is_branch for f in on_settled)
    for fault in faults:
        __, checked = observed_run(engine, fault, None)
        assert checked >= 1


def test_sampled_faults_of_generated_circuit():
    circ = generated_circuit(7, num_inputs=10, num_gates=80, num_outputs=4,
                             hardness=0.2)
    engine = PodemEngine(circ)
    faults = random.Random(7).sample(full_universe(circ), 24)
    for fault in faults:
        observed_run(engine, fault, 20)


@st.composite
def circuits_and_faults(draw):
    """A small random circuit and one fault of its full universe, drawn
    from the constant-settled sites half of the time."""
    c = Circuit(name="drawn")
    signals = [c.add_input(f"i{k}") for k in range(draw(st.integers(2, 5)))]
    read = set()
    for k in range(draw(st.integers(3, 14))):
        gtype = draw(st.sampled_from(GATE_TYPES))
        if gtype in (GateType.CONST0, GateType.CONST1):
            fanin = ()
        elif gtype in (GateType.BUF, GateType.NOT):
            fanin = (draw(st.sampled_from(signals)),)
        else:
            fanin = tuple(draw(st.lists(st.sampled_from(signals),
                                        min_size=2, max_size=4)))
        read.update(fanin)
        signals.append(c.add_gate(f"g{k}", gtype, fanin))
    gates = signals[len(c.inputs):]
    outputs = [s for s in gates if s not in read]
    outputs += draw(st.lists(st.sampled_from(gates), max_size=2))
    for out in dict.fromkeys(outputs):
        c.add_output(out)
    circ = compile_circuit(c)
    faults = full_universe(circ)
    settled = _settled_by_constants(circ)
    on_settled = [f for f in faults if _fault_site(circ, f) in settled]
    if on_settled and draw(st.booleans()):
        faults = on_settled
    return circ, draw(st.sampled_from(faults))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=circuits_and_faults())
def test_drawn_circuits_match_reference(case):
    circ, fault = case
    observed_run(PodemEngine(circ), fault, None)
