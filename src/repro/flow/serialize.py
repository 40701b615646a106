"""JSON codecs for flow stage artifacts.

One pair of functions per artifact type, all JSON-pure (dicts, lists,
strings, numbers) so the artifact cache can persist them as-is:

* pattern blocks — single-vector sets and two-pattern pair sets, words
  as hex strings (big-ints survive JSON losslessly that way);
* fault lists — through the owning fault model's codec
  (:mod:`repro.faults.registry`), so a cached artifact names its model;
* ``U`` selections — the selected block plus the dropping-run summary,
  with faults stored as *indices into the target list* (the fault list
  is itself an upstream artifact; storing positions keeps files small
  and makes tampering detectable);
* ADI results — the rows of the packed
  :class:`~repro.utils.detmatrix.DetectionMatrix` only, each as one hex
  big-int (the codec converts at this boundary, so the payload is the
  same whatever the in-memory layout); ``ndet``/ADI/indices are
  recomputed on load via :func:`repro.adi.index.adi_from_detection_matrix`
  — guaranteeing a deserialized result can never disagree with its
  rows;
* fault orders — the permutation of target-list positions, checked on
  load to be one;
* test-generation results (one type for every fault model), checked
  on load against the target list and for internal consistency;
* curve reports.

Every decoder validates shape and raises
:class:`repro.errors.ExperimentError` on mismatch — a cache file that
deserializes into nonsense must fail loudly, not propagate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Union

import numpy as np

from repro.adi.index import AdiMode, AdiResult, adi_from_detection_matrix
from repro.adi.metrics import CurveReport
from repro.adi.sampling import USelection
from repro.atpg.engine import TestGenResult
from repro.errors import ExperimentError
from repro.faults.registry import FaultModel, fault_model
from repro.faults.sets import FaultStatus
from repro.fsim.dropping import DropSimResult
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.detmatrix import DetectionMatrix


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ExperimentError(f"corrupt flow artifact: {message}")


# -- pattern blocks -----------------------------------------------------------

def pattern_block_to_json(block: Union[PatternSet, PatternPairSet]
                          ) -> Dict[str, Any]:
    """Encode a pattern block (single vectors or pairs) as JSON."""
    if isinstance(block, PatternPairSet):
        return {
            "kind": "pairs",
            "num_inputs": block.num_inputs,
            "num_patterns": block.num_patterns,
            "launch": [hex(w) for w in block.launch.words],
            "capture": [hex(w) for w in block.capture.words],
        }
    return {
        "kind": "single",
        "num_inputs": block.num_inputs,
        "num_patterns": block.num_patterns,
        "words": [hex(w) for w in block.words],
    }


def pattern_block_from_json(data: Dict[str, Any]
                            ) -> Union[PatternSet, PatternPairSet]:
    """Decode :func:`pattern_block_to_json` output."""
    kind = data.get("kind")
    num_inputs = data.get("num_inputs")
    num_patterns = data.get("num_patterns")
    _require(isinstance(num_inputs, int) and isinstance(num_patterns, int),
             "pattern block lacks integer dimensions")
    if kind == "pairs":
        launch = [int(w, 16) for w in data["launch"]]
        capture = [int(w, 16) for w in data["capture"]]
        return PatternPairSet(
            PatternSet(num_inputs, num_patterns, tuple(launch)),
            PatternSet(num_inputs, num_patterns, tuple(capture)),
        )
    _require(kind == "single", f"unknown pattern block kind {kind!r}")
    words = [int(w, 16) for w in data["words"]]
    return PatternSet(num_inputs, num_patterns, tuple(words))


# -- fault lists --------------------------------------------------------------

def faults_to_json(model: Union[str, FaultModel],
                   faults: Sequence) -> Dict[str, Any]:
    """Encode a fault list under its model's codec."""
    model = fault_model(model)
    return {
        "model": model.name,
        "faults": [model.fault_to_json(f) for f in faults],
    }


def faults_from_json(data: Dict[str, Any]) -> List:
    """Decode :func:`faults_to_json` output (model name is embedded)."""
    model = fault_model(data.get("model"))
    entries = data.get("faults")
    _require(isinstance(entries, list), "fault list payload is not a list")
    return [model.fault_from_json(entry) for entry in entries]


# -- U selection --------------------------------------------------------------

def selection_to_json(selection: USelection,
                      faults: Sequence) -> Dict[str, Any]:
    """Encode a :class:`USelection` relative to its target fault list."""
    index = {f: i for i, f in enumerate(faults)}
    first = selection.dropped_sim.first_detection
    _require(all(f in index for f in first),
             "selection references faults outside the target list")
    return {
        "patterns": pattern_block_to_json(selection.patterns),
        "candidates_drawn": selection.candidates_drawn,
        "total_faults": selection.dropped_sim.total_faults,
        "num_simulated": selection.dropped_sim.num_simulated,
        "first_detection": sorted(
            [index[f], vec] for f, vec in first.items()
        ),
    }


def selection_from_json(data: Dict[str, Any],
                        faults: Sequence) -> USelection:
    """Decode :func:`selection_to_json` output against the same fault list."""
    entries = data.get("first_detection")
    _require(isinstance(entries, list), "selection lacks first_detection")
    first = {}
    for entry in entries:
        _require(isinstance(entry, list) and len(entry) == 2,
                 "malformed first_detection entry")
        fault_idx, vec = entry
        _require(0 <= fault_idx < len(faults),
                 f"fault index {fault_idx} outside target list")
        first[faults[fault_idx]] = int(vec)
    dropped = DropSimResult(
        total_faults=int(data["total_faults"]),
        num_simulated=int(data["num_simulated"]),
        first_detection=first,
    )
    detected = tuple(f for f in faults if f in first)
    return USelection(
        patterns=pattern_block_from_json(data["patterns"]),
        detected_by_u=detected,
        dropped_sim=dropped,
        candidates_drawn=int(data["candidates_drawn"]),
    )


# -- ADI results --------------------------------------------------------------

#: Payload key of the hex matrix rows (named in cache format 1).
_ADI_ROWS = "detection_masks"


def adi_to_json(result: AdiResult) -> Dict[str, Any]:
    """Encode an :class:`AdiResult` as its defining matrix rows."""
    return {
        "num_vectors": result.num_vectors,
        "mode": result.mode.value,
        _ADI_ROWS: [hex(row) for row in result.matrix.to_bigints()],
    }


def adi_from_json(data: Dict[str, Any], faults: Sequence) -> AdiResult:
    """Decode :func:`adi_to_json` output against the same fault list.

    The rows are packed back into a matrix once; ``ndet``, ADI and the
    indices are *recomputed* from it — the cheap tail of
    :func:`repro.adi.index.compute_adi` — so a cached result is
    bit-identical to a fresh one by construction.
    """
    rows = data.get(_ADI_ROWS)
    _require(isinstance(rows, list) and len(rows) == len(faults),
             "ADI rows do not match the target fault list")
    matrix = DetectionMatrix.from_bigints(
        (int(row, 16) for row in rows), int(data["num_vectors"]))
    return adi_from_detection_matrix(faults, matrix, AdiMode(data["mode"]))


# -- fault orders -------------------------------------------------------------

def permutation_to_json(permutation: List[int]) -> Dict[str, Any]:
    """Encode a fault order (positions into the target list)."""
    return {"permutation": permutation}


def permutation_from_json(data: Dict[str, Any]) -> List[int]:
    """Decode :func:`permutation_to_json` output.

    The payload must be a permutation of ``range(len(payload))``: a
    truncated or duplicated order would otherwise send a silently wrong
    target list to test generation.
    """
    perm = np.asarray(data["permutation"], dtype=np.int64)
    _require(perm.ndim == 1 and (not perm.size or perm.min() >= 0),
             "order payload is not a list of positions")
    counts = np.bincount(perm, minlength=perm.size)
    _require(counts.size == perm.size and counts.all(),
             "order payload is not a permutation")
    return perm.tolist()


# -- test-generation results --------------------------------------------------

def testgen_to_json(model: Union[str, FaultModel], result) -> Dict[str, Any]:
    """Encode a :class:`repro.atpg.engine.TestGenResult` of any model.

    The model name embedded in the payload picks the fault codec on load.
    """
    model = fault_model(model)
    return {
        "model": model.name,
        "circuit_name": result.circuit_name,
        "tests": pattern_block_to_json(result.tests),
        "status": [
            [model.fault_to_json(f), status.value]
            for f, status in result.status.items()
        ],
        "detected_per_test": list(result.detected_per_test),
        "targeted_faults": [
            model.fault_to_json(f) for f in result.targeted_faults
        ],
        "podem_calls": result.podem_calls,
        "backtracks": result.backtracks,
        "runtime_seconds": result.runtime_seconds,
    }


def testgen_from_json(data: Dict[str, Any], faults: Sequence):
    """Decode :func:`testgen_to_json` output against the target fault list.

    The result must be consistent with ``faults`` and with itself: its
    status map covers exactly the target list, it has one targeted
    fault and one drop count per test, the drop counts add up to the
    detected faults, and every targeted fault is detected.  A cached
    test set failing any of these would report a wrong coverage.
    """
    model = fault_model(data.get("model"))
    entries = data.get("status")
    _require(isinstance(entries, list), "testgen payload lacks status list")
    status = {
        model.fault_from_json(fault_data): FaultStatus(value)
        for fault_data, value in entries
    }
    _require(len(status) == len(entries) == len(faults)
             and set(status) == set(faults),
             "test-set status does not cover the target fault list")
    result = TestGenResult(
        circuit_name=data["circuit_name"],
        tests=pattern_block_from_json(data["tests"]),
        status=status,
        detected_per_test=[int(v) for v in data["detected_per_test"]],
        targeted_faults=[
            model.fault_from_json(f) for f in data["targeted_faults"]
        ],
        podem_calls=int(data["podem_calls"]),
        backtracks=int(data["backtracks"]),
        runtime_seconds=float(data["runtime_seconds"]),
    )
    _require(result.num_tests == len(result.targeted_faults)
             == len(result.detected_per_test),
             "test count, targeted faults and drop counts disagree")
    _require(sum(result.detected_per_test) == result.num_detected,
             "drop counts do not add up to the detected faults")
    _require(all(status.get(f) == FaultStatus.DETECTED
                 for f in result.targeted_faults),
             "a targeted fault is not detected")
    return result


# -- curve reports ------------------------------------------------------------

def curve_to_json(report: CurveReport) -> Dict[str, Any]:
    """Encode a :class:`CurveReport`."""
    return {
        "curve": list(report.curve),
        "total_faults": report.total_faults,
    }


def curve_from_json(data: Dict[str, Any]) -> CurveReport:
    """Decode :func:`curve_to_json` output."""
    curve = data.get("curve")
    _require(isinstance(curve, list), "curve payload is not a list")
    return CurveReport(
        curve=tuple(int(v) for v in curve),
        total_faults=int(data["total_faults"]),
    )
