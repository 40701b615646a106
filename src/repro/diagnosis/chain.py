"""Causal-chain candidate re-ranking over the circuit graph.

Signature matching ranks faults by how well their dictionary rows match
the observed failing tests — but faults in one response-set equivalence
class (see :mod:`repro.diagnosis.compress`) are *indistinguishable* that
way, and near-miss scores tie frequently.  Following Pecker's
causal-chain idea, this module breaks those ties structurally: walk the
circuit graph backward from the failing observation points (the primary
outputs that miscompared) and prefer candidate sites whose forward cones

* **explain every failing output** — the site reaches all of them; a
  site that cannot reach a failing output cannot have caused it; and
* **predict no spurious ones** — the fewer never-failing outputs the
  site also reaches, the tighter the causal story.

The backward walk is precomputed: one reverse-topological sweep
(:func:`repro.circuit.graph.output_reach_masks`) answers "is site ``n``
in the transitive fan-in cone of output ``o``" for every pair at once,
so re-ranking a candidate list is O(candidates), not one graph
traversal per candidate.

Re-ranking is *refinement only*: the primary sort key stays the
signature score, so candidates with strictly better matches never sink;
within equal scores the order becomes (explains-all first, fewer
spurious outputs, dictionary position).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.circuit.flatten import CompiledCircuit
from repro.circuit.graph import output_reach_masks, transitive_fanin
from repro.diagnosis.locate import DiagnosisReport
from repro.errors import DiagnosisInputError
from repro.telemetry import span
from repro.utils.bitvec import popcount


def failing_outputs_mask(ranker_or_num: "ChainRanker | int",
                         failing_outputs: Iterable[int]) -> int:
    """Pack output *positions* (indices into ``circ.outputs``) to a mask.

    Out-of-range positions name observation points the circuit does not
    have and raise :class:`~repro.errors.DiagnosisInputError`.
    """
    num_outputs = (ranker_or_num if isinstance(ranker_or_num, int)
                   else ranker_or_num.num_outputs)
    mask = 0
    for position in failing_outputs:
        if not 0 <= int(position) < num_outputs:
            raise DiagnosisInputError(
                f"failing output {position} out of range for a circuit "
                f"with {num_outputs} outputs"
            )
        mask |= 1 << int(position)
    return mask


class ChainRanker:
    """Backward-cone evidence for candidate sites of one circuit.

    Precomputes, for every node, the bitmask of primary outputs its
    forward cone reaches (bit ``k`` = ``circ.outputs[k]``).  Membership
    in the backward cone is the dual view: site ``n`` lies in
    ``transitive_fanin(circ, [circ.outputs[k]])`` iff bit ``k`` of
    ``reach_mask(n)`` is set (cross-checked in the test suite).
    """

    def __init__(self, circ: CompiledCircuit):
        self.circ = circ
        self.num_outputs = len(circ.outputs)
        self._reach = output_reach_masks(circ)
        self._all_outputs = (1 << self.num_outputs) - 1

    def reach_mask(self, node: int) -> int:
        """Reachable-output bitmask of ``node``."""
        return self._reach[node]

    def explains(self, node: int, failing_mask: int) -> bool:
        """Does ``node``'s cone cover *every* failing output?"""
        return failing_mask & ~self._reach[node] == 0

    def spurious(self, node: int, failing_mask: int) -> int:
        """Outputs ``node`` reaches that never failed (fewer is better)."""
        return popcount(self._reach[node] & self._all_outputs
                        & ~failing_mask)

    def suspects(self, failing_outputs: Sequence[int]) -> List[int]:
        """Nodes in the union backward cone of the failing outputs.

        The classical suspect set: every node outside it is causally
        incapable of producing *any* of the observed failures.
        Equivalent to :func:`repro.circuit.graph.transitive_fanin` from
        the named outputs (and implemented with it, since callers use
        this once per device, not per candidate).
        """
        mask = failing_outputs_mask(self, failing_outputs)
        nodes = [self.circ.outputs[k] for k in range(self.num_outputs)
                 if (mask >> k) & 1]
        return transitive_fanin(self.circ, nodes)

    # -- re-ranking -----------------------------------------------------------

    def sort_key(self, node: int, score: float, position: int,
                 failing_mask: int) -> Tuple:
        """The refined order: score desc, explains-all, spurious, position."""
        return (-score, 0 if self.explains(node, failing_mask) else 1,
                self.spurious(node, failing_mask), position)

    def rerank(self, dictionary, report: DiagnosisReport,
               failing_outputs: Iterable[int]) -> DiagnosisReport:
        """Reorder a report's candidates by backward-cone evidence.

        The candidate *set* and every score are unchanged; only the
        order among equal scores moves.  ``dictionary`` supplies fault
        positions (the deterministic final tie-break).
        """
        mask = failing_outputs_mask(self, failing_outputs)
        with span("diagnosis.chain", candidates=len(report.candidates)):
            ranked = sorted(
                report.candidates,
                key=lambda pair: self.sort_key(
                    pair[0].node, pair[1],
                    dictionary.position(pair[0]), mask
                ),
            )
        return DiagnosisReport(observed_mask=report.observed_mask,
                               candidates=tuple(ranked))
