"""Cause-effect fault location from observed tester behaviour.

Given the pass/fail behaviour of a failing chip over a test set, rank
the modeled faults by how well their dictionary entries explain the
observation:

* an **exact match** scores highest;
* a candidate whose predicted failures are a superset/subset of the
  observation scores by overlap (defects are rarely perfect stuck-at
  faults, so near-misses matter);
* candidates predicting passes where the chip failed are penalized
  hardest (a stuck-at fault cannot "un-fail" a test).

The ranking metric is the standard match/mismatch count over tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.circuit.flatten import CompiledCircuit
from repro.diagnosis.dictionary import (
    PassFailDictionary,
    validate_observed_mask,
)
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.fsim.serial import output_response
from repro.sim.patterns import PatternSet
from repro.utils.detmatrix import DetectionMatrix, popcount64


@dataclass(frozen=True)
class DiagnosisReport:
    """Ranked candidate faults for one observed failure.

    ``candidates`` is deterministically ordered: score descending, ties
    broken by the fault's position in the dictionary (stable across
    runs, and bit-identical between :func:`diagnose` and the batched
    :func:`repro.diagnosis.pipeline.diagnose_batch` path).
    """

    observed_mask: int
    candidates: Tuple[Tuple[Fault, float], ...]  # (fault, score), sorted

    def exact_matches(self) -> List[Fault]:
        """Candidates whose predicted fail set equals the observation."""
        return [f for f, score in self.candidates if score == 1.0]


def diagnose(dictionary: PassFailDictionary, observed_mask: int,
             max_candidates: int = 10) -> DiagnosisReport:
    """Rank dictionary faults against an observed failing-test mask.

    Each candidate scores ``|P & O| / |P | O|`` for its predicted fail
    set ``P`` and the observation ``O`` (1.0 on an exact match), halved
    once per test the chip failed but the fault predicts to pass.  The
    intersection/union/missed popcounts of every candidate come from one
    pass over the dictionary's packed fail matrix.

    Masks with bits at or beyond ``num_tests`` (phantom tests) raise a
    :class:`~repro.errors.DiagnosisInputError` (a ``ValueError``).
    Candidates are ordered by score descending, ties broken by
    dictionary position — deterministic, and shared bit-for-bit with the
    batched pipeline.
    """
    validate_observed_mask(observed_mask, dictionary.num_tests)
    predicted = dictionary.fail_matrix.words
    observed = DetectionMatrix.from_bigints(
        [observed_mask], dictionary.num_tests
    ).words[0]
    intersection = popcount64(predicted & observed).sum(axis=1)
    union = popcount64(predicted | observed).sum(axis=1)
    missed = popcount64(observed & ~predicted).sum(axis=1)
    exact = (predicted == observed).all(axis=1)
    with np.errstate(invalid="ignore"):
        scores = np.where(
            union > 0, intersection / np.maximum(union, 1), 0.0
        ) * np.power(0.5, missed)
    scores = np.where(exact, 1.0, scores)
    nonzero_rows = dictionary.fail_matrix.any_rows()
    candidates = np.flatnonzero(nonzero_rows & (scores > 0.0))
    # ``candidates`` is already in dictionary-position order, so a
    # stable sort on score alone yields the deterministic
    # (score desc, position asc) order the batch path reproduces.
    scored: List[Tuple[Fault, float]] = [
        (dictionary.faults[i], float(scores[i])) for i in candidates
    ]
    scored.sort(key=lambda pair: -pair[1])
    return DiagnosisReport(
        observed_mask=observed_mask,
        candidates=tuple(scored[:max_candidates]),
    )


def inject_and_observe(circ: CompiledCircuit, fault: Fault,
                       tests: PatternSet) -> int:
    """Simulate a defective chip: the failing-test mask of ``fault``.

    The tester view of a chip carrying ``fault``: for each test, compare
    the faulty response to the expected (fault-free) one.
    """
    observed = 0
    for t in range(tests.num_patterns):
        vector = tests.vector(t)
        if output_response(circ, vector) != output_response(
            circ, vector, fault
        ):
            observed |= 1 << t
    return observed


def expected_tests_to_first_fail(dictionary: PassFailDictionary) -> float:
    """Mean index (1-based) of the first failing test over detected faults.

    This is the tester-time quantity the paper's steep-curve application
    optimizes: with every defective chip equally likely to carry any
    detected fault, a steeper test set fails sooner on average.  Lower is
    better; compare across test-set orders.
    """
    first = dictionary.fail_matrix.first_set_bits()
    firsts = first[first >= 0] + 1
    if not firsts.size:
        raise SimulationError("no detected faults to average over")
    return float(firsts.sum()) / int(firsts.size)
