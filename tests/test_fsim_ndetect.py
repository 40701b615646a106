"""Tests for n-detection fault simulation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.fsim import (
    detection_counts,
    detection_words,
    ndet_per_vector,
    redundancy_candidates,
)
from repro.sim import PatternSet
from repro.utils import detmatrix
from repro.utils.bitvec import bit_indices, popcount

from helpers import generated_circuit


class TestDetectionCounts:
    def test_uncapped_equals_popcount(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        counts = detection_counts(c17_circuit, faults, patterns)
        words = detection_words(c17_circuit, faults, patterns)
        for fault, word in zip(faults, words):
            assert counts[fault] == popcount(word)

    def test_cap_applies(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        capped = detection_counts(c17_circuit, faults, patterns, n=2)
        assert all(v <= 2 for v in capped.values())
        # c17 is irredundant: every fault detected at least once.
        assert all(v >= 1 for v in capped.values())

    def test_bad_n_rejected(self, c17_circuit):
        with pytest.raises(SimulationError):
            detection_counts(c17_circuit, [], PatternSet.exhaustive(5), n=0)


class TestNdetPerVector:
    def test_exact_mode_matches_column_sums(self, small_circuit):
        if small_circuit.num_inputs > 8:
            return
        faults = collapsed_fault_list(small_circuit)
        patterns = PatternSet.exhaustive(small_circuit.num_inputs)
        ndet = ndet_per_vector(small_circuit, faults, patterns)
        words = detection_words(small_circuit, faults, patterns)
        for u in range(patterns.num_patterns):
            expected = sum((w >> u) & 1 for w in words)
            assert ndet[u] == expected

    def test_total_is_sum_of_detections(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        ndet = ndet_per_vector(c17_circuit, faults, patterns)
        counts = detection_counts(c17_circuit, faults, patterns)
        assert int(ndet.sum()) == sum(counts.values())

    def test_n_detection_estimate_is_lower_bound(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        exact = ndet_per_vector(c17_circuit, faults, patterns)
        est = ndet_per_vector(c17_circuit, faults, patterns, n=3)
        assert np.all(est <= exact)
        assert int(est.sum()) == sum(
            detection_counts(c17_circuit, faults, patterns, n=3).values()
        )

    def test_n_1_counts_first_detections_only(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        patterns = PatternSet.exhaustive(5)
        est = ndet_per_vector(c17_circuit, faults, patterns, n=1)
        assert int(est.sum()) == len(faults)

    def test_bad_n_rejected(self, c17_circuit):
        with pytest.raises(SimulationError):
            ndet_per_vector(c17_circuit, [], PatternSet.exhaustive(5), n=-1)

    @pytest.mark.parametrize("extra", [1, 3, "P", "P+5"])
    def test_capped_counts_across_dense_chunks(self, extra, monkeypatch):
        """The capped count is the same over several dense chunks as over
        one, and equals a plain-Python count of each fault's first ``n``
        detecting vectors."""
        circ = generated_circuit(5, num_inputs=10, num_gates=60)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, 150, seed=3)
        width = patterns.num_patterns
        n = {"P": width, "P+5": width + 5}.get(extra, extra)
        expected = [0] * width
        for word in detection_words(circ, faults, patterns):
            for u in bit_indices(word)[:n]:
                expected[u] += 1
        # Chunks of under a third of the faults: at least three of them.
        rows = (len(faults) - 1) // 3
        assert 3 * rows < len(faults)
        monkeypatch.setattr(detmatrix, "DENSE_CHUNK_ELEMS", rows * width)
        chunked = ndet_per_vector(circ, faults, patterns, n=n)
        monkeypatch.setattr(detmatrix, "DENSE_CHUNK_ELEMS",
                            len(faults) * width)
        single = ndet_per_vector(circ, faults, patterns, n=n)
        assert chunked.tolist() == expected
        assert single.tolist() == expected


class TestRedundancyCandidates:
    def test_irredundant_circuit_has_none(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        candidates = redundancy_candidates(
            c17_circuit, faults, PatternSet.exhaustive(5)
        )
        assert candidates == []

    def test_redundant_circuit_flags_candidates(self, redundant_circuit):
        faults = collapsed_fault_list(redundant_circuit)
        candidates = redundancy_candidates(
            redundant_circuit, faults,
            PatternSet.exhaustive(redundant_circuit.num_inputs),
        )
        assert candidates  # y = a·b + a·¬b has undetectable faults
