"""SAT-based ATPG (Larrabee-style) over the homegrown DPLL solver.

For a target fault, build a *miter*: Tseitin-encode the fault-free
circuit over the region that matters (the fault's output cone plus the
transitive fanin of the cone's outputs), encode the faulty copy over the
cone only, and assert that at least one primary output in the cone
differs.  SAT ⇒ the model's primary-input assignment is a test; UNSAT ⇒
the fault is undetectable — an independent proof path used to
cross-validate PODEM in the test suite and benchmarked as an ablation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.atpg.podem import PodemResult, PodemStatus
from repro.atpg.sat import CnfFormula, SatStatus, solve_cnf
from repro.circuit.flatten import CompiledCircuit
from repro.circuit.gate_types import GateType
from repro.circuit.graph import output_cone, transitive_fanin
from repro.errors import AtpgError
from repro.faults.model import Fault, check_fault
from repro.sim.threeval import X


def _encode_gate(formula: CnfFormula, gtype: GateType, out: int,
                 ins: List[int]) -> None:
    """Tseitin clauses for ``out <-> gtype(ins)`` (literals, not vars)."""
    if gtype in (GateType.AND, GateType.NAND):
        y = out if gtype == GateType.AND else -out
        for a in ins:
            formula.add_clause([-y, a])
        formula.add_clause([y] + [-a for a in ins])
    elif gtype in (GateType.OR, GateType.NOR):
        y = out if gtype == GateType.OR else -out
        for a in ins:
            formula.add_clause([y, -a])
        formula.add_clause([-y] + list(ins))
    elif gtype == GateType.BUF:
        formula.add_clause([-out, ins[0]])
        formula.add_clause([out, -ins[0]])
    elif gtype == GateType.NOT:
        formula.add_clause([-out, -ins[0]])
        formula.add_clause([out, ins[0]])
    elif gtype in (GateType.XOR, GateType.XNOR):
        # Chain 2-input XORs: acc = a xor b via 4 clauses each.
        acc = ins[0]
        for k in range(1, len(ins)):
            nxt = formula.new_var() if k < len(ins) - 1 else None
            target = nxt if nxt is not None else (
                out if gtype == GateType.XOR else -out
            )
            a, b = acc, ins[k]
            formula.add_clause([-target, a, b])
            formula.add_clause([-target, -a, -b])
            formula.add_clause([target, -a, b])
            formula.add_clause([target, a, -b])
            acc = target
        if len(ins) == 1:  # degenerate single-input XOR == BUF/NOT
            y = out if gtype == GateType.XOR else -out
            formula.add_clause([-y, ins[0]])
            formula.add_clause([y, -ins[0]])
    elif gtype == GateType.CONST0:
        formula.add_clause([-out])
    elif gtype == GateType.CONST1:
        formula.add_clause([out])
    else:
        raise AtpgError(f"cannot encode node type {gtype!r}")


class SatAtpg:
    """Reusable SAT-based test generator bound to one circuit."""

    def __init__(self, circ: CompiledCircuit):
        self.circ = circ

    def _build_miter(self, fault: Fault) -> Tuple[
        CnfFormula, Dict[int, int], List[int]
    ]:
        """Encode the miter; returns (formula, good var map, region PIs)."""
        circ = self.circ
        cone = output_cone(circ, fault.node)
        cone_set = set(cone)
        cone_pos = [n for n in cone if circ.is_output[n]]
        if not cone_pos:
            # Fault effects cannot reach any output: structurally
            # undetectable; callers handle the empty-PO case directly.
            return CnfFormula(), {}, []
        region = transitive_fanin(circ, cone_pos)
        region_set = set(region)

        formula = CnfFormula()
        gvar: Dict[int, int] = {n: formula.new_var() for n in region}
        fvar: Dict[int, int] = {
            n: formula.new_var() for n in cone
        }

        def faulty_lit(node: int) -> int:
            return fvar[node] if node in fvar else gvar[node]

        # Fault-free copy over the whole region.
        for node in region:
            if node < circ.num_inputs:
                continue
            _encode_gate(
                formula, circ.node_type[node], gvar[node],
                [gvar[s] for s in circ.fanin[node]],
            )

        # Faulty copy over the cone; outside the cone it shares gvar.
        stuck_lit = None
        if fault.is_stem:
            stuck_lit = fvar[fault.node]
            formula.add_clause(
                [stuck_lit if fault.value else -stuck_lit]
            )
        for node in cone:
            if node == fault.node and fault.is_stem:
                continue  # value pinned by the unit clause above
            if node < circ.num_inputs:
                # A PI inside the cone can only be the fault node itself
                # (PIs have no fanin); other cone nodes are gates.
                continue
            ins = [faulty_lit(s) for s in circ.fanin[node]]
            if fault.is_branch and node == fault.node:
                const = formula.new_var()
                formula.add_clause([const if fault.value else -const])
                ins[fault.pin] = const
            _encode_gate(formula, circ.node_type[node], fvar[node], ins)

        # Detection: some cone PO differs between the copies.
        diff_lits: List[int] = []
        for po in cone_pos:
            d = formula.new_var()
            a, b = gvar[po], faulty_lit(po)
            formula.add_clause([-d, a, b])
            formula.add_clause([-d, -a, -b])
            formula.add_clause([d, -a, b])
            formula.add_clause([d, a, -b])
            diff_lits.append(d)
        formula.add_clause(diff_lits)

        # Activation for stem faults: the good value must oppose the
        # stuck value (otherwise good == faulty everywhere trivially —
        # implied, but stating it prunes the search).
        site = fault.node if fault.is_stem else circ.fanin[fault.node][fault.pin]
        lit = gvar[site]
        formula.add_clause([-lit if fault.value else lit])

        region_pis = [n for n in region if n < circ.num_inputs]
        return formula, gvar, region_pis

    def run(self, fault: Fault,
            conflict_limit: Optional[int] = 20_000) -> PodemResult:
        """Generate a test cube (same result type as PODEM)."""
        check_fault(self.circ, fault)
        formula, gvar, region_pis = self._build_miter(fault)
        if not region_pis and not formula.clauses:
            return PodemResult(fault=fault, status=PodemStatus.UNDETECTABLE)
        outcome = solve_cnf(formula, conflict_limit=conflict_limit)
        if outcome.status == SatStatus.UNSAT:
            return PodemResult(
                fault=fault, status=PodemStatus.UNDETECTABLE,
                backtracks=outcome.conflicts,
                decisions=outcome.decisions,
            )
        if outcome.status == SatStatus.UNKNOWN:
            return PodemResult(
                fault=fault, status=PodemStatus.ABORTED,
                backtracks=outcome.conflicts,
                decisions=outcome.decisions,
            )
        cube = [X] * self.circ.num_inputs
        for pi in region_pis:
            cube[pi] = 1 if outcome.model[gvar[pi]] else 0
        return PodemResult(
            fault=fault, status=PodemStatus.SUCCESS, cube=cube,
            backtracks=outcome.conflicts, decisions=outcome.decisions,
        )


def sat_podem(circ: CompiledCircuit, fault: Fault,
              conflict_limit: Optional[int] = 20_000) -> PodemResult:
    """One-shot convenience wrapper around :class:`SatAtpg`."""
    return SatAtpg(circ).run(fault, conflict_limit=conflict_limit)
