"""Property tests for circuit transformations.

Constant simplification must preserve function on arbitrary circuits —
including circuits salted with constant gates and degenerate structures
that the generator never produces on its own.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import (
    GateType,
    compile_circuit,
    to_netlist,
)
from repro.circuit.netlist import Circuit, GateDef
from repro.circuit.redundancy import simplify_constants
from repro.sim import PatternSet, simulate_outputs

from helpers import generated_circuit

_slow = settings(max_examples=8, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _salt_with_constants(circ, seed):
    """Rewire a few gate pins to fresh CONST gates (deterministically)."""
    netlist = to_netlist(circ)
    rng = random.Random(seed)
    salted = Circuit(name=netlist.name + "_salted")
    for pi in netlist.inputs:
        salted.add_input(pi)
    salted.add_gate("__k0", GateType.CONST0, ())
    salted.add_gate("__k1", GateType.CONST1, ())
    for gate in netlist.gates:
        inputs = list(gate.inputs)
        if len(inputs) >= 2 and rng.random() < 0.25:
            # Replace one pin with a constant; keep at least one live pin.
            pin = rng.randrange(len(inputs))
            inputs[pin] = "__k1" if rng.random() < 0.5 else "__k0"
        salted.add_gate(gate.name, gate.gtype, tuple(inputs))
    for po in netlist.outputs:
        salted.add_output(po)
    return salted


class TestSimplifyConstantsProperty:
    @_slow
    @given(seed=st.integers(0, 500))
    def test_function_preserved_with_salted_constants(self, seed):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=4)
        salted = _salt_with_constants(circ, seed)
        before = compile_circuit(salted)
        after = compile_circuit(simplify_constants(salted))
        patterns = PatternSet.exhaustive(6)
        assert simulate_outputs(before, patterns) == \
            simulate_outputs(after, patterns)

    @_slow
    @given(seed=st.integers(0, 500))
    def test_idempotent(self, seed):
        circ = generated_circuit(seed, num_inputs=6, num_gates=20,
                                 num_outputs=3)
        salted = _salt_with_constants(circ, seed)
        once = simplify_constants(salted)
        twice = simplify_constants(once)
        assert [(g.name, g.gtype, g.inputs) for g in once.gates] == \
            [(g.name, g.gtype, g.inputs) for g in twice.gates]

    @_slow
    @given(seed=st.integers(0, 500))
    def test_no_constant_fed_gates_survive(self, seed):
        """After simplification no surviving gate reads a CONST signal
        (they must all have been folded)."""
        circ = generated_circuit(seed, num_inputs=6, num_gates=20,
                                 num_outputs=3)
        salted = _salt_with_constants(circ, seed)
        simplified = simplify_constants(salted)
        const_names = {
            g.name for g in simplified.gates
            if g.gtype in (GateType.CONST0, GateType.CONST1)
        }
        for gate in simplified.gates:
            assert not (set(gate.inputs) & const_names), gate

