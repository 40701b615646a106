"""Parallel-pattern single-fault propagation (PPSFP).

One call propagates one fault across an entire pattern block: the
fault-free value of every node is a big-int word (from
:func:`repro.sim.bitsim.simulate`), the fault is injected at its site, and
only *changed* nodes are re-evaluated, in topological order, until the
difference dies or reaches primary outputs.

Cost properties that make the whole reproduction tractable in Python:

* a fault that no pattern excites costs O(1) (one XOR at the site);
* propagation stops the moment the faulty/fault-free difference mask goes
  to zero on the whole frontier;
* node ids are topological, so a min-heap on node id is a correct event
  queue and every node is evaluated at most once per fault.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Sequence

from repro.circuit.flatten import CompiledCircuit
from repro.faults.model import Fault, check_fault
from repro.fsim.backend import FaultSimBackend
from repro.sim.bitsim import eval_gate_words, simulate
from repro.sim.patterns import PatternSet
from repro.utils.bitvec import full_mask


def _inject(circ: CompiledCircuit, good: Sequence[int], fault: Fault,
            mask: int) -> tuple[int, int]:
    """Compute the faulty word at the fault's node.

    Returns ``(node, faulty_word)``; for a branch fault the node is the
    consuming gate re-evaluated with the faulty pin forced.
    """
    stuck_word = mask if fault.value else 0
    if fault.is_stem:
        return fault.node, stuck_word
    srcs = circ.fanin[fault.node]
    words = [good[s] for s in srcs]
    words[fault.pin] = stuck_word
    faulty = eval_gate_words(circ.node_type[fault.node], words, mask)
    return fault.node, faulty


def detection_word(circ: CompiledCircuit, good: Sequence[int], fault: Fault,
                   num_patterns: int) -> int:
    """Bit ``p`` of the result is set iff pattern ``p`` detects ``fault``.

    ``good`` must be the fault-free node words for the same pattern block
    (length ``circ.num_nodes``).
    """
    check_fault(circ, fault)
    mask = full_mask(num_patterns)
    start, faulty_word = _inject(circ, good, fault, mask)
    diff = (good[start] ^ faulty_word) & mask
    if not diff:
        return 0

    faulty: Dict[int, int] = {start: faulty_word}
    detected = diff if circ.is_output[start] else 0

    heap: List[int] = []
    queued = {start}
    for nxt in circ.fanout[start]:
        if nxt not in queued:
            queued.add(nxt)
            heappush(heap, nxt)

    fanin = circ.fanin
    fanout = circ.fanout
    node_type = circ.node_type
    is_output = circ.is_output

    while heap:
        node = heappop(heap)
        words = [faulty.get(s, good[s]) for s in fanin[node]]
        value = eval_gate_words(node_type[node], words, mask)
        delta = (value ^ good[node]) & mask
        if not delta:
            continue
        faulty[node] = value
        if is_output[node]:
            detected |= delta
        for nxt in fanout[node]:
            if nxt not in queued:
                queued.add(nxt)
                heappush(heap, nxt)
    return detected


def detection_words(circ: CompiledCircuit, faults: Sequence[Fault],
                    patterns: PatternSet) -> List[int]:
    """Detection word of every fault in ``faults`` over ``patterns``."""
    good = simulate(circ, patterns)
    n = patterns.num_patterns
    return [detection_word(circ, good, f, n) for f in faults]


def detects(circ: CompiledCircuit, vector: Sequence[int], fault: Fault) -> bool:
    """Does the single input ``vector`` detect ``fault``?"""
    patterns = PatternSet.from_vectors([list(vector)], circ.num_inputs)
    good = simulate(circ, patterns)
    return bool(detection_word(circ, good, fault, 1))


class ParallelFaultSimulator(FaultSimBackend):
    """Binds a circuit and reuses fault-free values across fault queries.

    This is the ``bigint`` entry of the backend registry
    (:mod:`repro.fsim.backend`): :meth:`load` simulates the fault-free
    block once, and :meth:`detection_words` propagates each fault
    event-driven with early exit — cheapest for small problems and the
    one-vector dropping inside test generation.  Packed and transition
    queries come from :class:`repro.fsim.backend.FaultSimBackend`.
    """

    name = "bigint"

    def __init__(self, circ: CompiledCircuit):
        super().__init__(circ)
        self._good: List[int] = []

    def _stage(self, patterns: PatternSet) -> None:
        self._good = simulate(self.circ, patterns)

    def detection_words(self, faults: Sequence[Fault]) -> List[int]:
        """Detection word of every fault (a loop — this engine is per-fault)."""
        width = self._require_block().num_patterns
        return [detection_word(self.circ, self._good, f, width) for f in faults]
