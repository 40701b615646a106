"""A small DPLL SAT solver (unit propagation + two-watched literals).

Self-contained backend for the SAT-based ATPG (:mod:`repro.atpg.satgen`).
The dialect is classic CNF: variables are positive integers, literals are
signed integers, a clause is a tuple of literals.

The solver implements:

* two-watched-literal unit propagation;
* chronological backtracking on a decision trail;
* a static activity heuristic (variables in shorter clauses first), which
  is plenty for ATPG-sized formulas (thousands of variables);
* conflict counting with an optional budget, mirroring PODEM's backtrack
  limit so the two engines can be compared fairly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AtpgError


class SatStatus(Enum):
    """Outcome of a solver run."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # conflict budget exhausted


@dataclass
class SatResult:
    """Solver outcome plus statistics."""

    status: SatStatus
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


class CnfFormula:
    """A growable CNF formula."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: List[Tuple[int, ...]] = []

    def new_var(self) -> int:
        """Allocate a fresh variable, returning its (positive) index."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; empty clauses make the formula trivially UNSAT."""
        clause = tuple(literals)
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise AtpgError(f"literal {lit} references unknown variable")
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)


class DpllSolver:
    """DPLL with two-watched-literal propagation.

    One instance per solve; ``solve`` may be called once.
    """

    def __init__(self, formula: CnfFormula,
                 conflict_limit: Optional[int] = None):
        self.num_vars = formula.num_vars
        self.clauses = [list(c) for c in formula.clauses]
        self.conflict_limit = conflict_limit
        # assignment[v] is None / True / False.
        self._assign: List[Optional[bool]] = [None] * (self.num_vars + 1)
        self._trail: List[int] = []          # literals in assignment order
        self._trail_marks: List[int] = []    # trail length per decision
        self._watches: Dict[int, List[int]] = {}
        self._stats = SatResult(status=SatStatus.UNKNOWN)

    # -- literal helpers -------------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        value = self._assign[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _set(self, lit: int) -> None:
        self._assign[abs(lit)] = lit > 0
        self._trail.append(lit)

    # -- propagation -----------------------------------------------------------

    def _init_watches(self) -> Optional[bool]:
        """Set up watches; returns False on an immediate conflict."""
        for index, clause in enumerate(self.clauses):
            if not clause:
                return False
            if len(clause) == 1:
                if not self._enqueue(clause[0]):
                    return False
                continue
            for lit in clause[:2]:
                self._watches.setdefault(lit, []).append(index)
        return True

    def _enqueue(self, lit: int) -> bool:
        value = self._value(lit)
        if value is False:
            return False
        if value is None:
            self._set(lit)
        return True

    def _propagate(self) -> bool:
        """Exhaust unit propagation; False on conflict."""
        head = len(self._trail) - 1
        # Process newly assigned literals from wherever the queue stands.
        queue = [lit for lit in self._trail]
        position = 0
        # Only literals assigned after the last processed point matter,
        # but reprocessing is sound; keep it simple and linear.
        while position < len(queue):
            lit = queue[position]
            position += 1
            false_lit = -lit
            watchers = self._watches.get(false_lit, [])
            surviving: List[int] = []
            for clause_index in watchers:
                clause = self.clauses[clause_index]
                # Ensure false_lit is in slot 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    surviving.append(clause_index)
                    continue
                # Look for a new watchable literal.
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(
                            clause[1], []
                        ).append(clause_index)
                        moved = True
                        break
                if moved:
                    continue
                surviving.append(clause_index)
                # Clause is unit (or conflicting) on `first`.
                value = self._value(first)
                if value is False:
                    self._watches[false_lit] = surviving + watchers[
                        watchers.index(clause_index) + 1:
                    ]
                    return False
                if value is None:
                    self._set(first)
                    queue.append(first)
                    self._stats.propagations += 1
            self._watches[false_lit] = surviving
        return True

    # -- search ---------------------------------------------------------------

    def _pick_branch_var(self, order: Sequence[int]) -> Optional[int]:
        for var in order:
            if self._assign[var] is None:
                return var
        return None

    def _backtrack(self) -> Optional[int]:
        """Undo the last decision level; returns the decision literal."""
        if not self._trail_marks:
            return None
        mark = self._trail_marks.pop()
        decision = self._trail[mark]
        while len(self._trail) > mark:
            lit = self._trail.pop()
            self._assign[abs(lit)] = None
        return decision

    def solve(self, assumptions: Sequence[int] = (),
              branch_order: Optional[Sequence[int]] = None) -> SatResult:
        """Run the search; ``assumptions`` are forced unit literals."""
        result = self._stats
        if not self._init_watches():
            result.status = SatStatus.UNSAT
            return result
        for lit in assumptions:
            if not self._enqueue(lit):
                result.status = SatStatus.UNSAT
                return result
        if not self._propagate():
            result.status = SatStatus.UNSAT
            return result

        if branch_order is None:
            # Static heuristic: variables appearing in short clauses first.
            weight: Dict[int, float] = {}
            for clause in self.clauses:
                if not clause:
                    continue
                bump = 2.0 ** -min(len(clause), 10)
                for lit in clause:
                    weight[abs(lit)] = weight.get(abs(lit), 0.0) + bump
            branch_order = sorted(
                range(1, self.num_vars + 1),
                key=lambda v: -weight.get(v, 0.0),
            )

        # Iterative DPLL: decide, propagate, backtrack-and-flip.
        flipped: List[bool] = []  # parallel to _trail_marks
        while True:
            var = self._pick_branch_var(branch_order)
            if var is None:
                result.status = SatStatus.SAT
                result.model = {
                    v: bool(self._assign[v])
                    for v in range(1, self.num_vars + 1)
                }
                return result
            result.decisions += 1
            self._trail_marks.append(len(self._trail))
            flipped.append(False)
            self._set(var)  # try True first

            while not self._propagate():
                result.conflicts += 1
                if (self.conflict_limit is not None
                        and result.conflicts > self.conflict_limit):
                    result.status = SatStatus.UNKNOWN
                    return result
                # Backtrack to the most recent unflipped decision.
                decision = None
                while self._trail_marks:
                    decision = self._backtrack()
                    was_flipped = flipped.pop()
                    if not was_flipped:
                        break
                    decision = None
                if decision is None:
                    result.status = SatStatus.UNSAT
                    return result
                self._trail_marks.append(len(self._trail))
                flipped.append(True)
                self._set(-decision)


def solve_cnf(formula: CnfFormula, assumptions: Sequence[int] = (),
              conflict_limit: Optional[int] = None) -> SatResult:
    """One-shot convenience wrapper."""
    return DpllSolver(formula, conflict_limit=conflict_limit).solve(
        assumptions
    )
