"""Unit tests for the packed DetectionMatrix value type."""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.adi.index import AdiMode, adi_from_detection_matrix
from repro.utils import detmatrix
from repro.utils.bitvec import bit_indices, popcount
from repro.utils.detmatrix import (
    DetectionMatrix,
    num_words_for,
    popcount64,
    tail_mask,
)

#: Word-boundary block widths exercised throughout.
BOUNDARY_WIDTHS = (1, 63, 64, 65, 129)


def reference_words(seed: int, num_faults: int, num_patterns: int):
    """Deterministic big-int detection words with mixed densities."""
    rng = np.random.default_rng(seed)
    words = []
    for i in range(num_faults):
        if i % 5 == 0:
            words.append(0)
            continue
        density = rng.random() * 0.9 + 0.05
        bits = rng.random(num_patterns) < density
        word = 0
        for p in np.flatnonzero(bits):
            word |= 1 << int(p)
        words.append(word)
    return words


class TestHelpers:
    def test_num_words_for(self):
        assert num_words_for(0) == 1
        assert num_words_for(1) == 1
        assert num_words_for(64) == 1
        assert num_words_for(65) == 2
        assert num_words_for(129) == 3

    def test_tail_mask(self):
        assert tail_mask(64) == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert tail_mask(1) == np.uint64(1)
        assert tail_mask(65) == np.uint64(1)
        assert tail_mask(63) == np.uint64((1 << 63) - 1)

    def test_popcount64_matches_bigint_popcount(self):
        rng = np.random.default_rng(7)
        arr = rng.integers(0, 2 ** 63, size=(4, 3), dtype=np.int64) \
            .astype(np.uint64)
        expected = [[popcount(int(v)) for v in row] for row in arr]
        assert popcount64(arr).tolist() == expected


class TestRoundTrips:
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_bigint_round_trip(self, width):
        words = reference_words(width, 17, width)
        matrix = DetectionMatrix.from_bigints(words, width)
        assert matrix.num_faults == 17
        assert matrix.num_words == num_words_for(width)
        assert matrix.to_bigints() == words
        assert [matrix.row_int(r) for r in range(17)] == words
        # Column-major words are read through one row-major copy.
        columns = DetectionMatrix(np.asfortranarray(matrix.words), width)
        assert columns.to_bigints() == words

    def test_bigints_make_no_whole_matrix_copy(self):
        """The rows are read out of the words in place: the traced peak
        stays below the returned ints plus half of the words."""
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2 ** 64 - 1, size=(2000, 64),
                             dtype=np.uint64, endpoint=True)
        matrix = DetectionMatrix(words, 64 * 64)
        tracemalloc.start()
        try:
            ints = matrix.to_bigints()
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sys.getsizeof(ints) + sum(map(sys.getsizeof, ints))
        assert peak < size + words.nbytes // 2
        assert ints == [matrix.row_int(r) for r in range(2000)]

    def test_empty_matrix(self):
        matrix = DetectionMatrix.zeros(0, 10)
        assert matrix.num_faults == 0
        assert matrix.to_bigints() == []
        assert matrix.first_set_bits().size == 0
        assert matrix.row_index_lists() == []
        assert matrix.column_counts().tolist() == [0] * 10

    def test_zero_pattern_matrix(self):
        matrix = DetectionMatrix.zeros(3, 0)
        assert matrix.num_words == 1
        assert matrix.to_bigints() == [0, 0, 0]

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DetectionMatrix(np.zeros((2, 2), dtype=np.uint64), 64)
        with pytest.raises(ValueError):
            DetectionMatrix(np.zeros((2, 1), dtype=np.int64), 64)
        with pytest.raises(ValueError):
            DetectionMatrix(np.full((1, 1), 2, dtype=np.uint64), 1)

    def test_from_rows_masks_tail(self):
        rows = np.full((2, 1), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        matrix = DetectionMatrix.from_rows(rows, 3)
        assert matrix.to_bigints() == [0b111, 0b111]


class TestQueries:
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_row_popcounts_and_any(self, width):
        words = reference_words(width + 2, 23, width)
        matrix = DetectionMatrix.from_bigints(words, width)
        assert matrix.row_popcounts().tolist() == \
            [popcount(w) for w in words]
        assert matrix.any_rows().tolist() == [bool(w) for w in words]

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_column_counts(self, width):
        words = reference_words(width + 3, 19, width)
        matrix = DetectionMatrix.from_bigints(words, width)
        expected = [
            sum((w >> p) & 1 for w in words) for p in range(width)
        ]
        assert matrix.column_counts().tolist() == expected

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_first_set_bits(self, width):
        words = reference_words(width + 4, 21, width)
        matrix = DetectionMatrix.from_bigints(words, width)
        expected = [
            (w & -w).bit_length() - 1 if w else -1 for w in words
        ]
        assert matrix.first_set_bits().tolist() == expected

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_row_indices_and_lists(self, width):
        words = reference_words(width + 5, 15, width)
        matrix = DetectionMatrix.from_bigints(words, width)
        per_row = matrix.row_index_lists()
        assert len(per_row) == 15
        for row, word in enumerate(words):
            assert matrix.row_indices(row).tolist() == bit_indices(word)
            assert per_row[row].tolist() == bit_indices(word)

    def test_unpack_bits(self):
        matrix = DetectionMatrix.from_bigints([0b1011, 0], 4)
        assert matrix.unpack_bits().tolist() == [[1, 1, 0, 1], [0, 0, 0, 0]]

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    @pytest.mark.parametrize("num_faults", [1, 13, 101])
    def test_column_bigints_transpose_rows(self, width, num_faults,
                                           monkeypatch):
        """Entry ``p`` has bit ``f`` iff row ``f`` has bit ``p``, whether
        the pattern bytes go through in one chunk or a few at a time."""
        words = reference_words(width + num_faults, num_faults, width)
        matrix = DetectionMatrix.from_bigints(words, width)
        expected = [
            sum(((w >> p) & 1) << f for f, w in enumerate(words))
            for p in range(width)
        ]
        assert matrix.column_bigints() == expected
        # Three pattern bytes per chunk: wider rows span several chunks.
        monkeypatch.setattr(detmatrix, "DENSE_CHUNK_ELEMS", 3 * num_faults)
        assert matrix.column_bigints() == expected

    def test_column_bigints_of_empty_matrices(self):
        assert DetectionMatrix.zeros(0, 70).column_bigints() == [0] * 70
        assert DetectionMatrix.zeros(5, 0).column_bigints() == []


class TestCombination:
    def test_select_rows(self):
        words = reference_words(3, 6, 70)
        matrix = DetectionMatrix.from_bigints(words, 70)
        picked = matrix.select_rows([4, 1, 1])
        assert picked.to_bigints() == [words[4], words[1], words[1]]

    def test_equality(self):
        words = reference_words(4, 5, 65)
        a = DetectionMatrix.from_bigints(words, 65)
        b = DetectionMatrix.from_bigints(words, 65)
        assert a == b
        assert not (a == DetectionMatrix.zeros(5, 65)) or all(
            w == 0 for w in words
        )
        with pytest.raises(TypeError):
            hash(a)


class TestPatternColumns:
    """``take_patterns``, ``concat_patterns`` and ``select_patterns``
    agree with slicing the unpacked 0/1 matrix."""

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS + (128, 200))
    def test_take_patterns(self, width):
        matrix = DetectionMatrix.from_bigints(
            reference_words(width, 9, width), width)
        dense = matrix.unpack_bits()
        for count in sorted({0, 1, width // 2, width - 1, width}):
            taken = matrix.take_patterns(count)
            assert taken.num_patterns == count
            assert np.array_equal(taken.unpack_bits(), dense[:, :count])
        with pytest.raises(ValueError):
            matrix.take_patterns(width + 1)

    @pytest.mark.parametrize("widths", [
        (64, 64), (64, 1), (1, 64), (63, 65), (65, 63, 129), (0, 64, 0),
        (1, 1, 1), (128, 129), (64, 128, 256, 576), (),
    ])
    def test_concat_patterns(self, widths):
        parts = [
            DetectionMatrix.from_bigints(reference_words(7 + i, 9, w), w)
            for i, w in enumerate(widths)
        ]
        joined = DetectionMatrix.concat_patterns(parts, 9)
        dense = np.concatenate(
            [part.unpack_bits() for part in parts], axis=1
        ) if parts else np.zeros((9, 0), dtype=np.uint8)
        assert joined.num_patterns == sum(widths)
        assert np.array_equal(joined.unpack_bits(), dense)

    def test_concat_patterns_row_count_checked(self):
        with pytest.raises(ValueError):
            DetectionMatrix.concat_patterns(
                [DetectionMatrix.zeros(2, 64), DetectionMatrix.zeros(3, 64)],
                2)

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS + (128, 200))
    def test_select_patterns(self, width):
        matrix = DetectionMatrix.from_bigints(
            reference_words(width + 1, 9, width), width)
        dense = matrix.unpack_bits()
        rng = np.random.default_rng(width)
        for indices in ([], list(range(width)), list(range(width))[::-1],
                        rng.integers(0, width, size=width + 3).tolist(),
                        sorted(set(rng.integers(0, width, 70).tolist()))):
            picked = matrix.select_patterns(indices)
            assert picked.num_patterns == len(indices)
            assert np.array_equal(picked.unpack_bits(),
                                  dense[:, indices] if indices
                                  else dense[:, :0])
        with pytest.raises(ValueError):
            matrix.select_patterns([width])


class TestDenseChunks:
    """Each dense-chunk consumer answers the same on a matrix that spans
    several default chunks as on one chunk."""

    NUM_PATTERNS = 700

    @pytest.fixture(scope="class")
    def matrix(self):
        rng = np.random.default_rng(26)
        rows = 2 * (detmatrix.DENSE_CHUNK_ELEMS // self.NUM_PATTERNS) + 300
        density = rng.random((rows, 1)) * 0.2
        density[::7] = 0.0  # some faults nothing detects
        bits = rng.random((rows, self.NUM_PATTERNS)) < density
        raw = np.zeros((rows, num_words_for(self.NUM_PATTERNS) * 8),
                       dtype=np.uint8)
        packed = np.packbits(bits, axis=1, bitorder="little")
        raw[:, :packed.shape[1]] = packed
        return DetectionMatrix(raw.view("<u8").astype(np.uint64),
                               self.NUM_PATTERNS)

    @staticmethod
    def one_chunk(matrix, monkeypatch):
        monkeypatch.setattr(detmatrix, "DENSE_CHUNK_ELEMS",
                            matrix.num_faults * matrix.num_patterns)
        assert len(list(matrix.iter_dense_chunks())) == 1

    def test_spans_several_default_chunks(self, matrix):
        starts = [start for start, __ in matrix.iter_dense_chunks()]
        assert len(starts) == 3
        assert all(bits.size <= detmatrix.DENSE_CHUNK_ELEMS
                   for __, bits in matrix.iter_dense_chunks())

    def test_column_counts_row_lists_and_columns(self, matrix, monkeypatch):
        rng = np.random.default_rng(7)
        picks = rng.integers(0, self.NUM_PATTERNS, 300).tolist()
        chunked = (matrix.column_counts(), matrix.row_index_lists(),
                   matrix.select_patterns(picks))
        self.one_chunk(matrix, monkeypatch)
        counts, lists, columns = chunked
        assert np.array_equal(counts, matrix.column_counts())
        assert len(lists) == matrix.num_faults
        assert all(np.array_equal(a, b)
                   for a, b in zip(lists, matrix.row_index_lists()))
        assert columns == matrix.select_patterns(picks)

    @pytest.mark.parametrize("mode", list(AdiMode))
    def test_adi_matches_one_chunk_and_plain_python(self, matrix, mode,
                                                    monkeypatch):
        faults = list(range(matrix.num_faults))
        chunked = adi_from_detection_matrix(faults, matrix, mode)
        sets = [bit_indices(word) for word in matrix.to_bigints()]
        ndet = [0] * matrix.num_patterns
        for patterns in sets:
            for pattern in patterns:
                ndet[pattern] += 1
        expected = []
        for patterns in sets:
            values = [ndet[p] for p in patterns]
            if not values:
                expected.append(0)
            elif mode is AdiMode.MINIMUM:
                expected.append(min(values))
            else:
                expected.append(int(sum(values) / len(values)))
        assert chunked.ndet.tolist() == ndet
        assert chunked.adi.tolist() == expected
        self.one_chunk(matrix, monkeypatch)
        single = adi_from_detection_matrix(faults, matrix, mode)
        assert np.array_equal(single.adi, chunked.adi)
        assert np.array_equal(single.ndet, chunked.ndet)
