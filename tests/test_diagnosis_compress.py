"""Tests for response-set dictionary compression.

The batched diagnosis pipeline rests on two dedup claims:
:meth:`DetectionMatrix.unique_rows` partitions rows into content
classes in first-occurrence order, and :func:`compress_dictionary`
round-trips losslessly (every fault position appears in exactly one
class, and every member's mask equals its class representative's).
Both are pinned here with directed cases and hypothesis properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnosis import compress_dictionary
from repro.diagnosis.dictionary import PassFailDictionary
from repro.faults.model import Fault
from repro.utils.detmatrix import DetectionMatrix, num_words_for


def make_dictionary(masks, num_tests):
    """A dictionary with synthetic masks and distinct placeholder faults."""
    faults = tuple(Fault(node=i, pin=-1, value=0)
                   for i in range(len(masks)))
    return PassFailDictionary(
        faults=faults,
        fail_matrix=DetectionMatrix.from_bigints(
            [int(m) for m in masks], num_tests))


@st.composite
def packed_matrices(draw):
    """Random packed matrices with deliberately repeated rows."""
    num_patterns = draw(st.integers(min_value=0, max_value=140))
    distinct = draw(st.lists(
        st.integers(min_value=0,
                    max_value=max((1 << num_patterns) - 1, 0)),
        min_size=0, max_size=8, unique=True,
    ))
    rows = draw(st.lists(
        st.sampled_from(distinct) if distinct else st.just(0),
        min_size=0 if distinct else 0, max_size=30,
    )) if distinct else []
    return DetectionMatrix.from_bigints(rows, num_patterns), rows


class TestUniqueRows:
    def test_empty_matrix(self):
        reps, inverse = DetectionMatrix.zeros(0, 10).unique_rows()
        assert reps.size == 0 and inverse.size == 0

    def test_all_identical(self):
        matrix = DetectionMatrix.from_bigints([0b101] * 5, 3)
        reps, inverse = matrix.unique_rows()
        assert reps.tolist() == [0]
        assert inverse.tolist() == [0] * 5

    def test_first_occurrence_order(self):
        # Content order (1 < 6 < 7) differs from row order (7, 1, 6):
        # class indices must follow first occurrence, not content.
        matrix = DetectionMatrix.from_bigints([7, 1, 6, 1, 7], 3)
        reps, inverse = matrix.unique_rows()
        assert reps.tolist() == [0, 1, 2]
        assert inverse.tolist() == [0, 1, 2, 1, 0]

    def test_word_boundary_rows(self):
        masks = [1 << 63, 1 << 64, (1 << 63) | (1 << 64), 1 << 63]
        matrix = DetectionMatrix.from_bigints(masks, 65)
        reps, inverse = matrix.unique_rows()
        assert reps.tolist() == [0, 1, 2]
        assert inverse.tolist() == [0, 1, 2, 0]

    @settings(max_examples=120, deadline=None)
    @given(packed_matrices())
    def test_matches_bruteforce(self, case):
        """reps/inverse agree with a dict-based reference partition."""
        matrix, rows = case
        reps, inverse = matrix.unique_rows()
        seen = {}
        expected_reps, expected_inverse = [], []
        for index, value in enumerate(rows):
            if value not in seen:
                seen[value] = len(expected_reps)
                expected_reps.append(index)
            expected_inverse.append(seen[value])
        assert reps.tolist() == expected_reps
        assert inverse.tolist() == expected_inverse

    @settings(max_examples=80, deadline=None)
    @given(packed_matrices())
    def test_reps_reconstruct_rows(self, case):
        """words[reps[inverse[r]]] == words[r] for every row."""
        matrix, __ = case
        reps, inverse = matrix.unique_rows()
        if matrix.num_faults:
            assert np.array_equal(matrix.words[reps[inverse]],
                                  matrix.words)


class TestCompressDictionary:
    def test_empty_dictionary(self):
        compressed = compress_dictionary(make_dictionary([], 12))
        assert compressed.num_classes == 0
        assert compressed.members == ()
        assert compressed.compression_ratio == 1.0

    def test_members_partition_positions(self):
        masks = [0b11, 0b01, 0b11, 0, 0b01, 0b11]
        compressed = compress_dictionary(make_dictionary(masks, 2))
        assert compressed.num_classes == 3
        assert compressed.members == ((0, 2, 5), (1, 4), (3,))
        assert compressed.class_of_fault.tolist() == [0, 1, 0, 2, 1, 0]

    def test_members_masks_match_representative(self):
        masks = [0b110, 0b011, 0b110, 0b011, 0b100]
        dictionary = make_dictionary(masks, 3)
        compressed = compress_dictionary(dictionary)
        for class_index, members in enumerate(compressed.members):
            rep_mask = compressed.matrix.row_int(class_index)
            for position in members:
                assert dictionary.fail_matrix.row_int(position) == rep_mask

    def test_expand_and_representative(self):
        dictionary = make_dictionary([5, 5, 3], 3)
        compressed = compress_dictionary(dictionary)
        assert compressed.expand(0) == [dictionary.faults[0],
                                        dictionary.faults[1]]
        assert compressed.representative(0) is dictionary.faults[0]
        assert compressed.representative(1) is dictionary.faults[2]

    def test_compression_ratio_and_summary(self):
        compressed = compress_dictionary(
            make_dictionary([1, 1, 1, 2, 2, 3], 2))
        assert compressed.compression_ratio == pytest.approx(2.0)
        summary = compressed.summary()
        assert summary["num_faults"] == 6
        assert summary["num_classes"] == 3
        assert summary["compression_ratio"] == pytest.approx(2.0)

    def test_class_popcounts_cached(self):
        compressed = compress_dictionary(
            make_dictionary([0b111, 0b1, 0b111], 3))
        counts = compressed.class_popcounts()
        assert counts.tolist() == [3, 1]
        assert compressed.class_popcounts() is counts

    @settings(max_examples=80, deadline=None)
    @given(packed_matrices())
    def test_round_trip_lossless(self, case):
        """Members partition all positions; every member matches its rep."""
        matrix, rows = case
        dictionary = make_dictionary(rows, matrix.num_patterns)
        compressed = compress_dictionary(dictionary)
        flattened = sorted(
            position
            for members in compressed.members for position in members
        )
        assert flattened == list(range(len(rows)))
        for class_index, members in enumerate(compressed.members):
            rep = compressed.matrix.row_int(class_index)
            assert all(rows[p] == rep for p in members)
            # The first member is the representative (first occurrence).
            assert compressed.class_of_fault[members[0]] == class_index
