"""Transition (delay) fault model for two-pattern scan tests.

A transition fault sits on the same *lines* as a stuck-at fault — the
output stem of a node, or one fanout branch — but models a gross delay
defect instead of a hard short: a **slow-to-rise** line fails to complete
a 0 -> 1 transition within the clock period, a **slow-to-fall** line a
1 -> 0 transition.  Detection therefore needs a *pattern pair*
``(v1, v2)``: the launch vector ``v1`` initializes the line, the capture
vector ``v2`` propagates the late value to an output.

For the combinational full-scan model the classic reduction applies
(and is what both fault-simulation backends implement):

    slow-to-rise at ``s`` is detected by ``(v1, v2)``  iff
    ``s = 0`` under ``v1``  and  ``s`` stuck-at-0 is detected by ``v2``

(dually, slow-to-fall reduces to ``s = 1`` under ``v1`` plus stuck-at-1
detection by ``v2``).  :meth:`TransitionFault.as_stuck_at` exposes the
capture-side stuck-at fault; :attr:`TransitionFault.initial_value` the
launch-side line value — note they coincide, because the slow line keeps
its initial value through the capture cycle.

Structural collapsing (:func:`collapse_transition_faults`) is more
restricted than for stuck-at faults: the AND/OR input-to-output rules are
only *dominances* here, because the launch condition differs (input pin
at the controlling value forces the output, but not vice versa).  True
equivalence survives only through single-input gates on non-branching
lines — BUF preserves the transition direction, NOT swaps it — which is
exactly what the collapser merges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.errors import FaultModelError
from repro.faults.collapse import CollapsedFaults, _UnionFind, gather_classes
from repro.faults.model import STEM, Fault, check_fault
from repro.faults.universe import fault_lines, input_line

#: ``rise`` value of a slow-to-rise fault (the slow transition is 0 -> 1).
SLOW_TO_RISE = 1

#: ``rise`` value of a slow-to-fall fault (the slow transition is 1 -> 0).
SLOW_TO_FALL = 0


@dataclass(frozen=True, order=True)
class TransitionFault:
    """A single transition fault.

    Attributes
    ----------
    node:
        Node id.  For a stem fault, the slow line is this node's output;
        for a branch fault, the node is the *consuming gate*.
    pin:
        :data:`repro.faults.model.STEM` (-1) for a stem fault, otherwise
        the index into ``fanin[node]`` naming the slow input branch.
    rise:
        :data:`SLOW_TO_RISE` (1) or :data:`SLOW_TO_FALL` (0).

    Ordering is lexicographic on ``(node, pin, rise)`` — topological order
    of fault sites, the deterministic "original order" (``Forig``) of the
    transition experiments, mirroring :class:`repro.faults.model.Fault`.
    """

    node: int
    pin: int
    rise: int

    def __post_init__(self):
        if self.rise not in (SLOW_TO_FALL, SLOW_TO_RISE):
            raise FaultModelError(
                f"rise must be 0 (slow-to-fall) or 1 (slow-to-rise), "
                f"got {self.rise!r}"
            )
        if self.pin < STEM:
            raise FaultModelError(f"pin must be >= -1, got {self.pin}")

    @property
    def is_stem(self) -> bool:
        """True for output-stem faults."""
        return self.pin == STEM

    @property
    def is_branch(self) -> bool:
        """True for fanout-branch (gate input pin) faults."""
        return self.pin != STEM

    @property
    def initial_value(self) -> int:
        """Line value ``v1`` must establish: 0 before a rise, 1 before a fall."""
        return 0 if self.rise else 1

    def site(self) -> tuple:
        """The fault line ``(node, pin)`` without the transition direction."""
        return (self.node, self.pin)

    def as_stuck_at(self) -> Fault:
        """The stuck-at fault the slow line mimics under the capture vector.

        A slow-to-rise line stays 0, i.e. behaves as stuck-at-0 under
        ``v2``; slow-to-fall behaves as stuck-at-1.  The stuck value
        equals :attr:`initial_value` — the line is frozen at it.
        """
        return Fault(self.node, self.pin, self.initial_value)

    def describe(self, circ: CompiledCircuit) -> str:
        """Human-readable form, e.g. ``g12 slow-to-rise``."""
        kind = "slow-to-rise" if self.rise else "slow-to-fall"
        name = circ.names[self.node]
        if self.is_stem:
            return f"{name} {kind}"
        src = circ.names[circ.fanin[self.node][self.pin]]
        return f"{name}.in{self.pin}({src}) {kind}"


def check_transition_fault(circ: CompiledCircuit,
                           fault: TransitionFault) -> None:
    """Validate that ``fault`` names a real line of ``circ``.

    Raises :class:`FaultModelError` otherwise.  Site validity is exactly
    stuck-at site validity, so the check delegates.
    """
    if not isinstance(fault, TransitionFault):
        raise FaultModelError(
            f"expected a TransitionFault, got {type(fault).__name__}"
        )
    check_fault(circ, fault.as_stuck_at())


def transition_universe(circ: CompiledCircuit) -> List[TransitionFault]:
    """All transition faults of ``circ``, in ``(node, pin, rise)`` order.

    Two faults (slow-to-fall, slow-to-rise) per line, over the same lines
    as the stuck-at universe (:func:`repro.faults.universe.full_universe`);
    the deterministic topological order serves as the transition
    experiments' "original order".
    """
    return [TransitionFault(node, pin, rise)
            for node, pin in fault_lines(circ)
            for rise in (SLOW_TO_FALL, SLOW_TO_RISE)]


def collapse_transition_faults(circ: CompiledCircuit,
                               universe: List[TransitionFault] | None = None
                               ) -> CollapsedFaults:
    """Collapse transition faults by structural equivalence.

    Mirrors :func:`repro.faults.collapse.collapse_faults` (union-find over
    the universe, lowest-sorting member as representative), with the rule
    set restricted to what is *sound* for two-pattern detection:

    * BUF: input slow-to-v  ==  output slow-to-v;
    * NOT: input slow-to-v  ==  output slow-to-(opposite).

    Single-input gates map the launch condition exactly (input at the
    initial value iff output at the corresponding value) and inherit the
    stuck-at capture equivalence, so detection sets are identical.  The
    multi-input AND/OR/NAND/NOR rules of the stuck-at collapser do NOT
    carry over: an AND input at 0 under ``v1`` forces the output to 0,
    but an output at 0 does not fix any particular input — only a
    dominance, which would lose coverage if merged.  The test suite
    verifies semantic equivalence of every class by exhaustive two-pattern
    simulation on small circuits.
    """
    if universe is None:
        universe = transition_universe(circ)
    index = {f: i for i, f in enumerate(universe)}
    uf = _UnionFind(len(universe))

    def merge(a: TransitionFault, b: TransitionFault) -> None:
        ia = index.get(a)
        ib = index.get(b)
        if ia is not None and ib is not None:
            uf.union(ia, ib)

    for gate in circ.gate_nodes():
        gtype = circ.node_type[gate]
        if gtype == GateType.BUF:
            for rise in (SLOW_TO_FALL, SLOW_TO_RISE):
                merge(TransitionFault(*input_line(circ, gate, 0), rise),
                      TransitionFault(gate, STEM, rise))
        elif gtype == GateType.NOT:
            for rise in (SLOW_TO_FALL, SLOW_TO_RISE):
                merge(TransitionFault(*input_line(circ, gate, 0), rise),
                      TransitionFault(gate, STEM, 1 - rise))
        # Multi-input gates: dominance only, never equivalence (see above).

    return gather_classes(universe, uf)


def transition_fault_list(circ: CompiledCircuit) -> List[TransitionFault]:
    """Convenience: the collapsed representatives in original order."""
    return list(collapse_transition_faults(circ).representatives)
