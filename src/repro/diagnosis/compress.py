"""Compressed pass/fail dictionaries: response-set deduplication.

Production dictionaries are highly redundant: structurally collapsed
faults that a given test set still cannot tell apart have *identical*
fail-matrix rows, and every such group would be scored separately by a
naive matcher.  :func:`compress_dictionary` deduplicates the packed
``fail_matrix`` rows of a :class:`~repro.diagnosis.dictionary.
PassFailDictionary` into equivalence classes (via
:meth:`~repro.utils.detmatrix.DetectionMatrix.unique_rows`), keeping a
class → member map so reported candidates expand back to concrete
faults losslessly:

* scoring cost drops from ``O(F)`` to ``O(C)`` rows per device
  (``C`` = number of distinct response sets);
* the candidate *sets* are unchanged — members of one class share a row,
  hence a score, and expansion restores every member (property-tested
  round trip);
* :attr:`CompressedDictionary.compression_ratio` records the win
  (``F / C``), reported by the CLI, the server and the throughput
  benchmark.

Class members are exactly where signature matching runs out of
information — they are indistinguishable by pass/fail behaviour — which
is why the causal-chain re-ranker (:mod:`repro.diagnosis.chain`)
exists: it separates same-signature candidates structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.diagnosis.dictionary import PassFailDictionary
from repro.telemetry import span
from repro.utils.detmatrix import DetectionMatrix


@dataclass(frozen=True)
class CompressedDictionary:
    """A pass/fail dictionary deduplicated into response-set classes.

    Attributes
    ----------
    dictionary:
        The source dictionary (fault order defines *positions*).
    matrix:
        ``(C, ceil(T/64))`` packed representative rows, one per class,
        in first-occurrence order of the source rows.
    class_of_fault:
        ``(F,)`` int64: the class index of every fault position.
    members:
        Per class, the member fault positions in increasing order; the
        first member is the class representative.
    """

    dictionary: PassFailDictionary
    matrix: DetectionMatrix
    class_of_fault: np.ndarray
    members: Tuple[Tuple[int, ...], ...]

    @property
    def num_faults(self) -> int:
        """Faults in the source dictionary."""
        return len(self.dictionary.faults)

    @property
    def num_classes(self) -> int:
        """Distinct response sets."""
        return self.matrix.num_faults

    @property
    def num_tests(self) -> int:
        """Tests covered by every row."""
        return self.dictionary.num_tests

    @property
    def compression_ratio(self) -> float:
        """``F / C`` — how many faults one scored row stands for."""
        if self.num_classes == 0:
            return 1.0
        return self.num_faults / self.num_classes

    def class_popcounts(self) -> np.ndarray:
        """Failing-test count per class row (cached)."""
        counts = getattr(self, "_class_popcounts", None)
        if counts is None:
            counts = self.matrix.row_popcounts()
            object.__setattr__(self, "_class_popcounts", counts)
        return counts

    def summary(self) -> dict:
        """Compression numbers for reports and benchmark artifacts."""
        return {
            "num_faults": self.num_faults,
            "num_classes": self.num_classes,
            "num_tests": self.num_tests,
            "compression_ratio": self.compression_ratio,
        }


def compress_dictionary(dictionary: PassFailDictionary
                        ) -> CompressedDictionary:
    """Deduplicate a dictionary's response sets into equivalence classes.

    Faults whose packed ``fail_matrix`` rows are identical collapse to
    one representative row; the expansion map preserves the full
    candidate set.  The round trip is lossless:
    ``expand`` of every class partitions the fault positions, and each
    member's row equals its class representative's row.
    """
    matrix = dictionary.fail_matrix
    with span("diagnosis.compress", faults=matrix.num_faults):
        reps, inverse = matrix.unique_rows()
        if reps.size:
            order = np.argsort(inverse, kind="stable")
            splits = np.searchsorted(inverse[order], np.arange(1, reps.size))
            members = tuple(
                tuple(int(p) for p in group)
                for group in np.split(order, splits)
            )
        else:
            members = ()
        return CompressedDictionary(
            dictionary=dictionary,
            matrix=matrix.select_rows(reps) if reps.size else
            DetectionMatrix.zeros(0, dictionary.num_tests),
            class_of_fault=inverse,
            members=members,
        )
