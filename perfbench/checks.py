"""Output checks: every run verifies what the program produced.

They run outside the timed windows.  Each returns a list of problems,
empty when the output is right, so a run counts wrong outputs into its
failures and a test can assert that a corrupted output is caught.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from typing import Any, Dict, List

import numpy as np

#: Blocks of a served ``/run`` document compared with an in-process run.
RUN_BLOCKS = ("tests", "curve", "adi")

#: ``/diagnose`` summary fields that are timings, not results.
_TIMINGS = ("seconds", "devices_per_sec")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def tests_digest(tests) -> str:
    """Digest of a generated test set (vectors, or launch/capture pairs)."""
    if hasattr(tests, "launch"):
        words = [list(tests.launch.words), list(tests.capture.words)]
    else:
        words = list(tests.words)
    return _sha(json.dumps([tests.num_patterns, words]).encode())


def adi_digest(adi) -> str:
    """Digest of an ADI result: the index values and the packed matrix."""
    return _sha(np.ascontiguousarray(adi.adi, dtype=np.int64).tobytes()
                + np.ascontiguousarray(adi.matrix.words).tobytes())


def orders_digest(permutations: Dict[str, List[int]]) -> str:
    """Digest of the permutations every order produced."""
    return _sha(json.dumps(permutations, sort_keys=True).encode())


def wire(document: Any) -> Any:
    """A document as a client sees it after the JSON round trip."""
    return json.loads(json.dumps(document))


def check_test_set(circ, result, label: str) -> List[str]:
    """Re-simulate a generated test set with the serial oracle.

    The faults the oracle detects must be exactly those marked DETECTED,
    every test must detect the fault it was generated for, and the number
    of faults each test detects first must equal ``detected_per_test``.
    Pairs use the two-pattern reduction: the launch vector sets the line
    to its initial value and the capture vector detects the matching
    stuck-at fault.
    """
    from repro.faults.sets import FaultStatus
    from repro.fsim.serial import simulate_with_fault
    from repro.sim.bitsim import simulate_vector

    tests = result.tests
    pairs = hasattr(tests, "launch")
    capture = tests.capture if pairs else tests
    vectors = [capture.vector(p) for p in range(capture.num_patterns)]
    good = [simulate_vector(circ, v) for v in vectors]
    good_out = [[g[o] & 1 for o in circ.outputs] for g in good]
    launch = ([simulate_vector(circ, tests.launch.vector(p))
               for p in range(tests.launch.num_patterns)] if pairs else None)

    def detects(fault, p: int) -> bool:
        stuck = fault.as_stuck_at() if pairs else fault
        line = (fault.node if fault.is_stem
                else circ.fanin[fault.node][fault.pin])
        if pairs and launch[p][line] & 1 != fault.initial_value:
            return False
        if good[p][line] & 1 == stuck.value:
            return False  # not excited: the faulty circuit is the good one
        faulty = simulate_with_fault(circ, vectors[p], stuck)
        return [faulty[o] for o in circ.outputs] != good_out[p]

    first = {fault: next((p for p in range(len(vectors))
                          if detects(fault, p)), None)
             for fault in result.status}
    problems = []
    marked = {f for f, s in result.status.items()
              if s == FaultStatus.DETECTED}
    found = {f for f, p in first.items() if p is not None}
    if marked != found:
        problems.append(f"{label}: the oracle detects {len(found)} faults, "
                        f"{len(marked)} are marked DETECTED "
                        f"({len(marked ^ found)} differ)")
    missed = [p for p, target in enumerate(result.targeted_faults)
              if not detects(target, p)]
    if missed:
        problems.append(f"{label}: {len(missed)} tests do not detect their "
                        f"target fault (first: test {missed[0]})")
    counts = Counter(p for p in first.values() if p is not None)
    if [counts[p] for p in range(len(vectors))] != \
            list(result.detected_per_test):
        problems.append(f"{label}: first detections per test differ from "
                        f"detected_per_test")
    return problems


def check_orders(permutations: Dict[str, List[int]], num_faults: int,
                 label: str) -> List[str]:
    """Every order must be a permutation of the target list."""
    return [f"{label}: order {name} is not a permutation of "
            f"{num_faults} faults"
            for name, perm in permutations.items()
            if sorted(perm) != list(range(num_faults))]


def check_adi_matrix(flow, sample: int, seed: int, label: str) -> List[str]:
    """The ADI matrix the pipeline computed (default engine) against the
    ``bigint`` engine on the same ``U``, over a seeded sample of rows."""
    from repro.faults.registry import query_detection_matrix
    from repro.fsim.backend import create_backend

    faults = flow.faults()
    rows = sorted(random.Random(seed).sample(range(len(faults)),
                                             min(sample, len(faults))))
    engine = create_backend(flow.circuit(), "bigint")
    reference = query_detection_matrix(engine, flow.selection().patterns,
                                       [faults[i] for i in rows])
    got = flow.adi().matrix.words[rows]
    if reference.words.shape != got.shape \
            or not np.array_equal(reference.words, got):
        return [f"{label}: sampled ADI rows differ from the bigint engine"]
    return []


def check_run_document(document: Dict[str, Any], expected: Dict[str, Any],
                       label: str) -> List[str]:
    """A served ``/run`` document against a wire-form in-process
    ``Flow.run().summary()`` of the same config."""
    result = document.get("result") or {}
    return [f"{label}: served '{block}' block differs from "
            f"Flow.run().summary()"
            for block in RUN_BLOCKS if result.get(block) != expected.get(block)]


def check_diagnose_document(document: Dict[str, Any],
                            expected: Dict[str, Any], label: str) -> List[str]:
    """A served ``/diagnose`` document against the wire form of
    ``diagnosis_document`` (``diagnose_batch``) run in-process on the same
    devices; timings aside."""
    def results(summary):
        return {k: v for k, v in (summary or {}).items()
                if k not in _TIMINGS}

    problems = [f"{label}: served '{key}' differs from diagnose_batch"
                for key in ("key", "fault_model", "devices")
                if document.get(key) != expected.get(key)]
    if results(document.get("summary")) != results(expected.get("summary")):
        problems.append(f"{label}: served summary differs from "
                        f"diagnose_batch")
    return problems
