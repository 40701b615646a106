"""PODEM test generation (Goel's path-oriented decision making).

Every node carries the values of two circuit copies at once, fault-free
(good) and faulty, as one 4-bit *pair code*: bits 0-1 hold the good copy
and bits 2-3 the faulty copy, each as a rail pair ``X = 00``, ``0 = 01``,
``1 = 10`` (the low bit of a pair says "is 0", the high bit "is 1").  A
node "carries D" when both copies are defined and differ, i.e. its code
is ``0b1001`` or ``0b0110``.  The D-frontier, X-path check, objective
selection and SCOAP-guided backtrace then follow the textbook algorithm.
Decisions assign primary inputs only, and both values of every decided PI
are tried before giving up, so with an unlimited backtrack budget PODEM is
*complete*: exhausting the decision tree proves the fault undetectable.
That completeness is what the redundancy-removal pass
(:mod:`repro.circuit.redundancy`) relies on.

Implication is compiled.  :class:`PodemEngine` builds one evaluator per
gate (:func:`gate_evaluator`) with its fanin ids bound, which computes both
copies in one step: one ``|`` and one ``&`` over the codes for the AND/OR
families, a 256-entry pair table for XOR/XNOR and a 16-entry rail swap for
inversion.  A run injects its fault by wrapping only the fault site's
evaluator: a stem fault forces the faulty rails of the node
(:func:`stem_fault_evaluator`), a branch fault substitutes the stuck value
on the faulty rails of one input pin (:func:`branch_fault_evaluator`).

Each PI assignment propagates events in node-id (topological) order
through a heap and records ``(node, old code)`` on a trail, so
backtracking is O(changed nodes).  Every node is evaluated after all its
changed fanins, so implication settles at the unique 3-valued fixpoint of
both copies: the values, and with them every decision, are those of two
separately simulated copies (:func:`repro.sim.threeval.eval_gate3` is the
reference the tests hold each evaluator to).

An assignment only refines values: one input goes from X to 0 or 1, and
3-valued evaluation is monotone, so a gate whose two copies are both
defined keeps its code and its event is dropped unevaluated.  Inserting
the fault is not a refinement: a stem fault on a node that a constant
drives turns its defined faulty value into the other value, so injection
evaluates every event.  One propagation evaluates each node at most
once, so a decision's trail holds each node once and restoring it in any
order gives the same codes.  A decision also works on a copy of the D
set (the nodes carrying D, a handful), so a backtrack puts the copy from
before it back instead of re-deriving membership per trail entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.atpg.scoap import Scoap, compute_scoap
from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import (
    GateType,
    controlling_value,
    is_inverting,
)
from repro.errors import AtpgError
from repro.faults.model import Fault, check_fault
from repro.sim.threeval import X

#: The "is 0" rails of both copies, and the "is 1" rails.
_ZERO_RAILS = 0b0101
_ONE_RAILS = 0b1010
#: 3-valued value (0, 1, X) -> the rail pair of one copy.
_RAILS = (0b01, 0b10, 0b00)
#: Rail pair of one copy -> 3-valued value (``0b11`` never occurs).
_VALUES = (X, 0, 1, X)


def pair_code(good: int, faulty: int) -> int:
    """The pair code of a (good, faulty) pair of 0/1/X values."""
    return _RAILS[good] | _RAILS[faulty] << 2


def pair_values(code: int) -> Tuple[int, int]:
    """The (good, faulty) 0/1/X values of a pair code."""
    return _VALUES[code & 3], _VALUES[code >> 2]


def _xor_pair(a: int, b: int) -> int:
    # Per copy, the output is 0 when the inputs are equal and 1 when they
    # differ; an X input (rails 00) sets neither output rail.
    a0, a1 = a & _ZERO_RAILS, a >> 1 & _ZERO_RAILS
    b0, b1 = b & _ZERO_RAILS, b >> 1 & _ZERO_RAILS
    return a0 & b0 | a1 & b1 | (a0 & b1 | a1 & b0) << 1


#: Inversion of both copies: swap each copy's "is 0" and "is 1" rails.
_SWAP = tuple((c & _ZERO_RAILS) << 1 | (c & _ONE_RAILS) >> 1
              for c in range(16))
_SAME = tuple(range(16))
#: XOR of two pair codes, indexed by ``a << 4 | b``; XNOR is its swap.
_XOR = tuple(_xor_pair(ab >> 4, ab & 15) for ab in range(256))
_XNOR = tuple(_SWAP[c] for c in _XOR)
#: Codes of a node carrying D (good 1, faulty 0) or D-bar.
_CARRIES_D = tuple(c in (pair_code(1, 0), pair_code(0, 1))
                   for c in range(16))
#: Codes with at least one copy at X.
_UNRESOLVED = tuple(not (c & 0b0011 and c & 0b1100) for c in range(16))
#: Codes a propagation leaves unevaluated, as they cannot change: those
#: with both copies defined for an input assignment (a refinement), none
#: for a fault insertion (see the module docstring).
_DEFINED = tuple(not u for u in _UNRESOLVED)
_NONE_FIXED = (False,) * 16
#: A fault-free PI assignment: value -> code.
_BOTH = (pair_code(0, 0), pair_code(1, 1))

#: A compiled gate: returns the node's pair code from its fanin codes.
Evaluator = Callable[[], int]


def gate_evaluator(gtype: GateType, fanin: Sequence[int],
                   codes: List[int]) -> Evaluator:
    """Compile one gate into a function returning its pair code.

    The evaluator reads the pair codes of ``fanin`` from ``codes`` (the
    per-node code array, bound once) and applies the gate to both copies.
    """
    fanin = tuple(fanin)
    if gtype in (GateType.CONST0, GateType.CONST1):
        value = 1 if gtype == GateType.CONST1 else 0
        const = pair_code(value, value)
        return lambda: const
    out = _SWAP if is_inverting(gtype) else _SAME
    if len(fanin) == 1:
        # BUF/NOT, or any other gate of one input: the input, inverted
        # for the inverting types.
        (a,) = fanin
        return lambda: out[codes[a]]
    if gtype in (GateType.AND, GateType.NAND):
        # Some input at 0 makes the output 0; all inputs at 1 make it 1.
        return _and_or_evaluator(fanin, codes, _ZERO_RAILS, _ONE_RAILS, out)
    if gtype in (GateType.OR, GateType.NOR):
        return _and_or_evaluator(fanin, codes, _ONE_RAILS, _ZERO_RAILS, out)
    if gtype in (GateType.XOR, GateType.XNOR):
        return _xor_evaluator(fanin, codes, _XNOR if out is _SWAP else _XOR)
    raise AtpgError(f"cannot compile node type {gtype!r}")


def _and_or_evaluator(fanin: Tuple[int, ...], codes: List[int],
                      any_rails: int, all_rails: int,
                      out: Tuple[int, ...]) -> Evaluator:
    """An output rail in ``any_rails`` is set when some input has it, one
    in ``all_rails`` when every input has it; ``out`` applies inversion."""
    if len(fanin) == 2:
        a, b = fanin

        def evaluate2() -> int:
            x = codes[a]
            y = codes[b]
            return out[(x | y) & any_rails | x & y & all_rails]
        return evaluate2
    if len(fanin) == 3:
        a, b, c = fanin

        def evaluate3() -> int:
            x = codes[a]
            y = codes[b]
            z = codes[c]
            return out[(x | y | z) & any_rails | x & y & z & all_rails]
        return evaluate3
    if len(fanin) == 4:
        a, b, c, d = fanin

        def evaluate4() -> int:
            w = codes[a]
            x = codes[b]
            y = codes[c]
            z = codes[d]
            return out[(w | x | y | z) & any_rails
                       | w & x & y & z & all_rails]
        return evaluate4

    def evaluate() -> int:
        some = 0
        every = 0b1111
        for s in fanin:
            x = codes[s]
            some |= x
            every &= x
        return out[some & any_rails | every & all_rails]
    return evaluate


def _xor_evaluator(fanin: Tuple[int, ...], codes: List[int],
                   last: Tuple[int, ...]) -> Evaluator:
    """Fold the inputs through the XOR pair table; the final input goes
    through ``last``, the XOR or the XNOR table."""
    if len(fanin) == 2:
        a, b = fanin
        return lambda: last[codes[a] << 4 | codes[b]]
    if len(fanin) == 3:
        a, b, c = fanin
        xor = _XOR
        return lambda: last[xor[codes[a] << 4 | codes[b]] << 4 | codes[c]]
    first, middle, final = fanin[0], fanin[1:-1], fanin[-1]

    def evaluate() -> int:
        xor = _XOR
        acc = codes[first]
        for s in middle:
            acc = xor[acc << 4 | codes[s]]
        return last[acc << 4 | codes[final]]
    return evaluate


def stem_fault_evaluator(evaluator: Evaluator, stuck: int) -> Evaluator:
    """``evaluator`` with the node's faulty copy stuck at ``stuck``."""
    forced = _RAILS[stuck] << 2
    return lambda: evaluator() & 0b0011 | forced


def branch_fault_evaluator(gtype: GateType, fanin: Sequence[int], pin: int,
                           stuck: int, codes: List[int]) -> Evaluator:
    """The gate's evaluator with input ``pin`` stuck at ``stuck`` in the
    faulty copy only (the driver's other fanout branches are unaffected)."""
    pins = [0] * len(fanin)
    inner = gate_evaluator(gtype, range(len(fanin)), pins)
    forced = _RAILS[stuck] << 2

    def evaluate() -> int:
        pins[:] = [codes[s] for s in fanin]
        pins[pin] = pins[pin] & 0b0011 | forced
        return inner()
    return evaluate


class PodemStatus(Enum):
    """Outcome of one PODEM run."""

    SUCCESS = "success"
    UNDETECTABLE = "undetectable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    """Test cube and statistics for one targeted fault."""

    fault: Fault
    status: PodemStatus
    cube: Optional[List[int]] = None  # per-PI 0/1/X, only for SUCCESS
    backtracks: int = 0
    decisions: int = 0

    @property
    def detected(self) -> bool:
        """True when a test cube was found."""
        return self.status == PodemStatus.SUCCESS


#: ``(node, old code)`` of each node a decision changed, each node once.
_Trail = List[Tuple[int, int]]
#: A decision on the search stack: the input, its value, whether both
#: values were tried, its trail and the D set from before it.
_Decision = Tuple[int, int, bool, _Trail, Set[int]]
#: Backtrace kinds of a node: the AND/OR families (and constants) go by
#: controlling value, the others by their own rule.
_KIND_CTRL, _KIND_BUF, _KIND_NOT, _KIND_XOR, _KIND_XNOR = range(5)
_KINDS = {GateType.BUF: _KIND_BUF, GateType.NOT: _KIND_NOT,
          GateType.XOR: _KIND_XOR, GateType.XNOR: _KIND_XNOR}


class PodemEngine:
    """Reusable PODEM engine bound to one circuit.

    Construction computes SCOAP, compiles every gate's evaluator and
    settles the constants once; :meth:`run` can then be called for many
    faults.
    """

    def __init__(self, circ: CompiledCircuit, scoap: Optional[Scoap] = None):
        self.circ = circ
        self.scoap = scoap or compute_scoap(circ)
        scoap = self.scoap
        self._num_inputs = circ.num_inputs
        # The evaluators are bound to this list: it is reset in place,
        # never replaced.
        self._codes: List[int] = [pair_code(X, X)] * circ.num_nodes
        self._evals: List[Optional[Evaluator]] = [None] * circ.num_nodes
        for node in circ.gate_nodes():
            self._evals[node] = gate_evaluator(
                circ.node_type[node], circ.fanin[node], self._codes
            )
        # A gate reading one signal on two pins is one event, not two.
        self._fanout = tuple(tuple(dict.fromkeys(f)) for f in circ.fanout)
        self._outputs = frozenset(circ.outputs)
        self._cost = (scoap.cc0, scoap.cc1)
        self._cheapest = tuple(min(c0, c1)
                               for c0, c1 in zip(scoap.cc0, scoap.cc1))
        self._ctrl = tuple(controlling_value(t) for t in circ.node_type)
        self._inverting = tuple(int(is_inverting(t)) for t in circ.node_type)
        self._kind = tuple(_KINDS.get(t, _KIND_CTRL) for t in circ.node_type)

        # Fault-free state with every PI at X: the constants and whatever
        # they imply, the starting point of every run.
        self._d_nodes: Set[int] = set()
        consts = [node for node in circ.gate_nodes()
                  if circ.node_type[node] in (GateType.CONST0,
                                              GateType.CONST1)]
        self._propagate(consts, [], _DEFINED)
        self._settled = tuple(self._codes)

    # -- public API ---------------------------------------------------------

    def run(self, fault: Fault,
            backtrack_limit: Optional[int] = 200) -> PodemResult:
        """Generate a test cube for ``fault``.

        ``backtrack_limit=None`` removes the budget, making the search
        complete (used for undetectability proofs).
        """
        check_fault(self.circ, fault)
        site_evaluator = self._evals[fault.node]
        try:
            self._inject(fault)
            return self._search(fault, backtrack_limit)
        finally:
            self._evals[fault.node] = site_evaluator

    # -- value management ----------------------------------------------------

    def _inject(self, fault: Fault) -> None:
        """Reset to the settled state and permanently insert ``fault``."""
        codes = self._codes
        codes[:] = self._settled
        self._d_nodes = set()
        node = fault.node
        stuck = fault.value
        self._stuck = stuck
        self._forced = _RAILS[stuck] << 2
        self._stuck_rails = _RAILS[stuck]
        self._active_rails = _RAILS[stuck ^ 1]
        self._stem_pi = -1
        self._branch_gate = -1
        if fault.is_stem:
            self._site = node
        else:
            self._site = self.circ.fanin[node][fault.pin]
            self._branch_gate = node

        # Let the unconditional implications settle (no trail: never
        # undone).
        if fault.is_stem and node < self._num_inputs:
            self._stem_pi = node
            codes[node] = self._forced
            self._propagate(self._fanout[node], [], _NONE_FIXED)
            return
        if fault.is_stem:
            self._evals[node] = stem_fault_evaluator(self._evals[node], stuck)
        else:
            self._evals[node] = branch_fault_evaluator(
                self.circ.node_type[node], self.circ.fanin[node], fault.pin,
                stuck, codes,
            )
        self._propagate((node,), [], _NONE_FIXED)

    def _undo(self, trail: _Trail, d_nodes: Set[int]) -> None:
        """Take a decision back: restore the codes it changed and the D
        set from before it."""
        codes = self._codes
        # Each node is on the trail once, so the order does not matter.
        for node, old in trail:
            codes[node] = old
        self._d_nodes = d_nodes

    def _assign_pi(self, pi: int, value: int) -> Tuple[_Trail, Set[int]]:
        """Assign ``value`` to input ``pi`` and imply it; return what
        :meth:`_undo` needs to take the assignment back."""
        d_nodes = self._d_nodes
        # The decision works on a copy, so a backtrack just puts the
        # old set back.
        self._d_nodes = set(d_nodes)
        code = _BOTH[value]
        if pi == self._stem_pi:
            code = code & 0b0011 | self._forced
        trail = [(pi, self._codes[pi])]
        self._codes[pi] = code
        # The input was X (only X inputs are decided): it carried no D.
        if _CARRIES_D[code]:
            self._d_nodes.add(pi)
        self._propagate(self._fanout[pi], trail, _DEFINED)
        return trail, d_nodes

    def _propagate(self, start_nodes: Sequence[int], trail: _Trail,
                   fixed: Sequence[bool]) -> None:
        """Evaluate the events from ``start_nodes`` to a fixpoint.

        Nodes are evaluated in id (topological) order, each at most once,
        and every change is recorded on ``trail``.  A node whose code is
        ``fixed`` is not queued.
        """
        codes = self._codes
        evals = self._evals
        fanout = self._fanout
        carries_d = _CARRIES_D
        d_nodes = self._d_nodes
        record = trail.append
        heap = [node for node in start_nodes if not fixed[codes[node]]]
        heapify(heap)
        queued = set(heap)
        while heap:
            node = heappop(heap)
            new = evals[node]()
            old = codes[node]
            if new == old:
                continue
            codes[node] = new
            record((node, old))
            if carries_d[new]:
                d_nodes.add(node)
            elif carries_d[old]:
                d_nodes.discard(node)
            for nxt in fanout[node]:
                if nxt not in queued and not fixed[codes[nxt]]:
                    queued.add(nxt)
                    heappush(heap, nxt)

    # -- search logic ----------------------------------------------------------

    def _search(self, fault: Fault,
                backtrack_limit: Optional[int]) -> PodemResult:
        result = PodemResult(fault=fault, status=PodemStatus.UNDETECTABLE)
        stack: List[_Decision] = []
        while True:
            action = self._next_action()
            if action == "success":
                result.status = PodemStatus.SUCCESS
                result.cube = [_VALUES[c & 0b0011]
                               for c in self._codes[:self._num_inputs]]
                return result
            if action != "backtrack":
                # action is an (objective_node, objective_value) pair.
                target = self._backtrace(*action)
                if target is not None:
                    pi, value = target
                    result.decisions += 1
                    trail, d_nodes = self._assign_pi(pi, value)
                    stack.append((pi, value, False, trail, d_nodes))
                    continue
                # No X-path of assignable inputs towards the objective:
                # treat it exactly like a conflict.
            status = self._backtrack(stack, result, backtrack_limit)
            if status is not None:
                result.status = status
                return result

    def _backtrack(self, stack: List[_Decision], result: PodemResult,
                   backtrack_limit: Optional[int]) -> Optional[PodemStatus]:
        """Undo decisions up to the newest one with an untried value and
        try that value.

        Returns ``None`` once a value is flipped, ABORTED when the flip
        would exceed ``backtrack_limit`` and UNDETECTABLE when the decision
        tree is exhausted.
        """
        while stack:
            pi, value, tried_both, trail, d_nodes = stack.pop()
            self._undo(trail, d_nodes)
            if not tried_both:
                result.backtracks += 1
                if (backtrack_limit is not None
                        and result.backtracks > backtrack_limit):
                    return PodemStatus.ABORTED
                value ^= 1
                trail, d_nodes = self._assign_pi(pi, value)
                stack.append((pi, value, True, trail, d_nodes))
                return None
        return PodemStatus.UNDETECTABLE

    def _frontier(self) -> Set[int]:
        codes = self._codes
        unresolved = _UNRESOLVED
        fanout = self._fanout
        frontier: Set[int] = set()
        for d in self._d_nodes:
            for gate in fanout[d]:
                if unresolved[codes[gate]]:
                    frontier.add(gate)
        # A branch fault's D sits on the consuming gate's pin, not on a
        # node: the gate joins the frontier once the site is activated.
        gate = self._branch_gate
        if (gate >= 0 and codes[self._site] & 0b0011 == self._active_rails
                and unresolved[codes[gate]]):
            frontier.add(gate)
        # Unordered: the objective is the minimum over (co, gate) and the
        # X-path check a bool, so no order can change a decision.
        return frontier

    def _next_action(self):
        """Decide the next step: success, backtrack, or an objective."""
        if not self._d_nodes.isdisjoint(self._outputs):
            return "success"

        codes = self._codes
        site_good = codes[self._site] & 0b0011
        if site_good == self._stuck_rails:
            return "backtrack"
        if not site_good:
            return (self._site, self._stuck ^ 1)

        frontier = self._frontier()
        if not frontier:
            return "backtrack"
        if not self._x_path_exists(frontier):
            return "backtrack"

        # Pick the most observable frontier gate that still offers an
        # unassigned (good-copy X) side input to work on.
        fanin = self.circ.fanin
        co = self.scoap.co
        candidates = []
        for gate in frontier:
            x_pins = [s for s in fanin[gate] if not codes[s] & 0b0011]
            if x_pins:
                candidates.append((co[gate], gate, x_pins))
        if not candidates:
            return "backtrack"
        __, gate, x_pins = min(candidates, key=lambda item: item[:2])
        ctrl = self._ctrl[gate]
        # XOR family: any defined value unblocks; 0 is the fixed choice.
        value = 0 if ctrl is None else ctrl ^ 1
        # The easiest side input keeps the backtrace shallow.
        src = min(x_pins, key=self._cost[value].__getitem__)
        return (src, value)

    def _x_path_exists(self, frontier: Set[int]) -> bool:
        """Can some frontier gate still reach an unresolved primary output?"""
        codes = self._codes
        unresolved = _UNRESOLVED
        fanout = self._fanout
        outputs = self._outputs
        seen: Set[int] = set()
        stack = [g for g in frontier if unresolved[codes[g]]]
        seen.update(stack)
        while stack:
            node = stack.pop()
            if node in outputs:
                return True
            for nxt in fanout[node]:
                if nxt not in seen and unresolved[codes[nxt]]:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def _backtrace(self, node: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned PI, SCOAP-guided."""
        codes = self._codes
        kinds = self._kind
        fanin = self.circ.fanin
        num_inputs = self._num_inputs
        # Every step moves to a fanin, whose id is lower: the walk ends.
        while node >= num_inputs:
            kind = kinds[node]
            srcs = fanin[node]
            x_srcs = [s for s in srcs if not codes[s] & 0b0011]
            if not x_srcs:
                return None
            if kind == _KIND_BUF or kind == _KIND_NOT:
                node = srcs[0]
                if kind == _KIND_NOT:
                    value ^= 1
                continue
            if kind == _KIND_XOR or kind == _KIND_XNOR:
                if len(x_srcs) == 1:
                    parity = value ^ (1 if kind == _KIND_XNOR else 0)
                    for s in srcs:
                        # A defined good copy is 0b01 (0) or 0b10 (1).
                        parity ^= (codes[s] & 0b0011) >> 1
                    node, value = x_srcs[0], parity
                else:
                    node = min(x_srcs, key=self._cheapest.__getitem__)
                    value = 0 if self._cost[0][node] <= self._cost[1][node] else 1
                continue
            ctrl = self._ctrl[node]
            base = value ^ self._inverting[node]
            if base == ctrl:
                # One controlling input suffices: take the easiest.
                node = min(x_srcs, key=self._cost[ctrl].__getitem__)
                value = ctrl
            else:
                # Every input must be non-controlling: attack the hardest
                # first so conflicts surface early.
                noncontrolling = ctrl ^ 1
                node = max(x_srcs,
                           key=self._cost[noncontrolling].__getitem__)
                value = noncontrolling
        if codes[node] & 0b0011:
            return None
        return node, value


def podem(circ: CompiledCircuit, fault: Fault,
          backtrack_limit: Optional[int] = 200,
          scoap: Optional[Scoap] = None) -> PodemResult:
    """One-shot convenience wrapper around :class:`PodemEngine`."""
    return PodemEngine(circ, scoap=scoap).run(
        fault, backtrack_limit=backtrack_limit
    )
