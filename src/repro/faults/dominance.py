"""Fault dominance collapsing (on top of equivalence collapsing).

Fault ``f`` *dominates* ``g`` when every test for ``g`` also detects
``f`` (``T(g) ⊆ T(f)``): ``f`` can then be dropped from the target list —
covering ``g`` covers it for free.  The classical structural rule: for a
gate with controlling value ``c``, the output stuck-at the value it takes
when *some* input is controlling... inverted — concretely,

* AND:  out s-a-1 dominates every input s-a-1;
* NAND: out s-a-0 dominates every input s-a-0... with the stuck values
  being the *non-controlled* output value (AND: 1, NAND: 0, OR: 0,
  NOR: 1);

so the output fault is dropped whenever at least one input-line fault of
the matching polarity remains targetable.  The rule is only sound when
the input fault's effect enters the circuit *through this gate alone*,
which is exactly how :mod:`repro.faults.collapse` scopes input-line
faults (branch fault when the line branches, single-consumer stem
otherwise) — so dominance composes directly with equivalence collapsing.

Dominance-collapsed target lists are smaller but change coverage
semantics (a dropped dominating fault is only *implicitly* covered);
the paper's experiments use equivalence collapsing only, and this module
exists for the ablation benchmark.

Caveat (textbook, and verified by the property tests): the coverage
guarantee "detecting every remaining target detects the whole universe"
holds for **irredundant** circuits.  In a redundant circuit a dominating
input fault can be undetectable while the dominated output fault is
detectable — no test set covers the undetectable dominator, so nothing
forces detection of the dropped fault.  Run redundancy removal first
(:func:`repro.circuit.redundancy.make_irredundant`) when the guarantee
matters.
"""

from __future__ import annotations

from typing import List, Set

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType, controlling_value, is_inverting
from repro.faults.collapse import CollapsedFaults, collapse_faults
from repro.faults.model import STEM, Fault
from repro.faults.universe import input_line


def _dominated_output_value(gtype: GateType) -> int | None:
    """Stuck value of the dominated output fault for this gate type."""
    ctrl = controlling_value(gtype)
    if ctrl is None:
        return None
    controlled_output = ctrl ^ (1 if is_inverting(gtype) else 0)
    return controlled_output ^ 1


def dominance_collapse(circ: CompiledCircuit,
                       collapsed: CollapsedFaults | None = None) -> List[Fault]:
    """Equivalence + dominance collapsed target list.

    Starts from the equivalence representatives and drops every output
    stem fault that is dominated by a still-targeted input-line fault of
    the matching polarity.  The result preserves full coverage: any test
    set detecting every returned fault detects every fault of the
    original universe.
    """
    if collapsed is None:
        collapsed = collapse_faults(circ)
    targets: Set[Fault] = set(collapsed.representatives)

    # Iterate in reverse topological order so chains of dominance
    # (out fault dominated by an input fault that is itself an output
    # fault of the previous gate) resolve in one pass.
    for gate in sorted(circ.gate_nodes(), reverse=True):
        gtype = circ.node_type[gate]
        value = _dominated_output_value(gtype)
        if value is None:
            continue
        out_fault = Fault(gate, STEM, value)
        out_rep = collapsed.class_index.get(out_fault)
        if out_rep is None:
            continue
        out_rep_fault = collapsed.representatives[out_rep]
        if out_rep_fault not in targets:
            continue
        # The dominated class must not contain anything but this output
        # fault's equivalents *observable only through this gate's
        # dominance relation*; classes merged across the gate (e.g. the
        # NOT-chain case) already guarantee equivalence, so dropping the
        # class is sound as long as some dominating input fault stays.
        ctrl = controlling_value(gtype)
        input_value = ctrl ^ 1
        dominators = []
        for pin in range(len(circ.fanin[gate])):
            in_fault = Fault(*input_line(circ, gate, pin), input_value)
            class_id = collapsed.class_index.get(in_fault)
            if class_id is None:
                continue
            rep = collapsed.representatives[class_id]
            if rep in targets and rep != out_rep_fault:
                dominators.append(rep)
        if dominators:
            targets.discard(out_rep_fault)

    return [f for f in collapsed.representatives if f in targets]


def dominance_reduction(circ: CompiledCircuit) -> tuple:
    """(equivalence count, dominance count) — for reports/benchmarks."""
    collapsed = collapse_faults(circ)
    reduced = dominance_collapse(circ, collapsed)
    return len(collapsed.representatives), len(reduced)
