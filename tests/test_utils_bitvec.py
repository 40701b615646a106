"""Unit and property tests for big-int bit-vector helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitvec import (
    bit_indices,
    bits_to_array,
    full_mask,
    iter_bits,
    popcount,
)


class TestFullMask:
    def test_zero_width(self):
        assert full_mask(0) == 0

    def test_small_widths(self):
        assert full_mask(1) == 1
        assert full_mask(8) == 0xFF
        assert full_mask(64) == (1 << 64) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            full_mask(-1)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_full_mask(self):
        assert popcount(full_mask(100)) == 100

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-5)

    @given(st.integers(min_value=0, max_value=1 << 200))
    def test_matches_bin_count(self, word):
        assert popcount(word) == bin(word).count("1")


class TestIterBits:
    def test_empty(self):
        assert list(iter_bits(0)) == []

    def test_known_pattern(self):
        assert list(iter_bits(0b10110)) == [1, 2, 4]

    @given(st.integers(min_value=0, max_value=1 << 150))
    def test_indices_increasing_and_complete(self, word):
        indices = bit_indices(word)
        assert indices == sorted(indices)
        rebuilt = 0
        for i in indices:
            rebuilt |= 1 << i
        assert rebuilt == word

    @given(st.integers(min_value=0, max_value=1 << 150))
    def test_count_matches_popcount(self, word):
        assert len(bit_indices(word)) == popcount(word)


class TestBitsToArray:
    def test_round_trip_small(self):
        word = 0b1011001
        arr = bits_to_array(word, 7)
        assert arr.tolist() == [1, 0, 0, 1, 1, 0, 1]

    def test_zero_width(self):
        assert bits_to_array(0, 0).size == 0

    @given(st.integers(min_value=0, max_value=(1 << 130) - 1),
           st.integers(min_value=130, max_value=200))
    def test_round_trip_property(self, word, width):
        arr = bits_to_array(word, width)
        assert arr.sum() == popcount(word)
        assert sum(int(bit) << i for i, bit in enumerate(arr)) == word

    def test_dtype(self):
        assert bits_to_array(5, 4).dtype == np.uint8

