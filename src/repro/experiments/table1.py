"""Table 1 (plus the Section 2/3 worked example) on the lion-like FSM.

The paper's Table 1 lists ``ndet(u)`` for all 16 exhaustive input vectors
of MCNC ``lion``; Section 2 then derives ``ADI(f)`` for a few faults and
Section 3 walks through the first placements of ``Fdynm``.  This harness
reproduces all three artefacts on our ``lion_like`` stand-in (DESIGN.md
§3 records why the exact per-vector values differ from the published
ones while the construction is identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.adi import AdiResult, compute_adi, dynamic_prefix, ndet_table
from repro.circuit.library import lion_like
from repro.faults import collapse_faults
from repro.sim.patterns import PatternSet
from repro.utils.tables import render_table


@dataclass
class Table1Result:
    """All worked-example data: ndet per vector, per-fault ADI, Fdynm prefix."""

    circuit_name: str
    num_faults: int
    ndet: Dict[int, int]
    adi_rows: List[Tuple[str, List[int], int]]  # (fault, D(f) vectors, ADI)
    dynm_prefix: List[Tuple[str, int]]          # (fault, ADI at placement)
    adi: AdiResult


def run_table1(example_faults: int = 3, prefix_length: int = 4) -> Table1Result:
    """Compute the worked example end to end."""
    circ = lion_like()
    faults = list(collapse_faults(circ).representatives)
    patterns = PatternSet.exhaustive(circ.num_inputs)
    # U = all 16 vectors, as in the paper ("we include all the 16 input
    # vectors of the circuit in the set U") — computed directly, without
    # select_u's early stop (which would truncate U at the vector where
    # coverage hits 100%).
    adi = compute_adi(circ, faults, patterns)

    # A few illustrative faults: lowest-ADI, a middle one, highest-ADI.
    detected = sorted(adi.detected_indices, key=lambda i: int(adi.adi[i]))
    picks: List[int] = []
    if detected:
        picks.append(detected[0])
        if len(detected) > 2:
            picks.append(detected[len(detected) // 2])
        picks.append(detected[-1])
    adi_rows = [
        (
            faults[i].describe(circ),
            adi.matrix.row_indices(i).tolist(),
            int(adi.adi[i]),
        )
        for i in picks[:example_faults]
    ]

    prefix = [
        (faults[i].describe(circ), value)
        for i, value in dynamic_prefix(adi, prefix_length)
    ]
    return Table1Result(
        circuit_name=circ.name,
        num_faults=len(faults),
        ndet=ndet_table(adi),
        adi_rows=adi_rows,
        dynm_prefix=prefix,
        adi=adi,
    )


def format_table1(result: Table1Result) -> str:
    """Render the worked example in the paper's layout."""
    vectors = sorted(result.ndet)
    half = (len(vectors) + 1) // 2
    blocks = []
    for chunk in (vectors[:half], vectors[half:]):
        headers = ["u"] + [str(u) for u in chunk]
        row = ["ndet(u)"] + [str(result.ndet[u]) for u in chunk]
        blocks.append(render_table(headers, [row]))
    lines = [
        f"Table 1: input vectors of {result.circuit_name} "
        f"({result.num_faults} collapsed target faults)",
        blocks[0],
        "",
        blocks[1],
        "",
        "Worked ADI examples (Section 2):",
    ]
    for fault, vectors_of_f, value in result.adi_rows:
        shown = ", ".join(str(u) for u in vectors_of_f)
        lines.append(f"  D({fault}) = {{{shown}}}  ->  ADI = {value}")
    lines.append("")
    lines.append("First Fdynm placements (Section 3):")
    for position, (fault, value) in enumerate(result.dynm_prefix, start=1):
        lines.append(f"  #{position}: {fault}  (ADI at placement = {value})")
    return "\n".join(lines)
