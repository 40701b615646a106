"""Tests for pattern containers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import PatternSet


class TestConstruction:
    def test_from_vectors_round_trip(self):
        vectors = [(1, 0, 1), (0, 0, 1), (1, 1, 0)]
        ps = PatternSet.from_vectors([list(v) for v in vectors])
        assert ps.num_inputs == 3
        assert ps.num_patterns == 3
        assert list(ps.iter_vectors()) == [tuple(v) for v in vectors]

    def test_empty_needs_width(self):
        with pytest.raises(SimulationError):
            PatternSet.from_vectors([])
        ps = PatternSet.from_vectors([], num_inputs=4)
        assert ps.num_patterns == 0

    def test_ragged_rejected(self):
        with pytest.raises(SimulationError):
            PatternSet.from_vectors([[1, 0], [1]])

    def test_non_binary_rejected(self):
        with pytest.raises(SimulationError):
            PatternSet.from_vectors([[0, 2]])

    def test_from_integers_msb_first(self):
        ps = PatternSet.from_integers([0b1010], num_inputs=4)
        assert ps.vector(0) == (1, 0, 1, 0)
        assert ps.as_integer(0) == 0b1010

    def test_from_integers_out_of_range(self):
        with pytest.raises(SimulationError):
            PatternSet.from_integers([16], num_inputs=4)

    def test_exhaustive_indexing(self):
        ps = PatternSet.exhaustive(3)
        assert ps.num_patterns == 8
        for p in range(8):
            assert ps.as_integer(p) == p

    def test_exhaustive_too_wide(self):
        with pytest.raises(SimulationError):
            PatternSet.exhaustive(21)

    def test_random_deterministic(self):
        a = PatternSet.random(5, 100, seed=3)
        b = PatternSet.random(5, 100, seed=3)
        assert a.words == b.words
        assert PatternSet.random(5, 100, seed=4).words != a.words

    def test_word_outside_block_rejected(self):
        with pytest.raises(SimulationError):
            PatternSet(1, 2, (0b100,))


class TestSlicing:
    @pytest.fixture
    def ps(self):
        return PatternSet.from_integers(list(range(8)), num_inputs=3)

    def test_take(self, ps):
        taken = ps.take(3)
        assert taken.num_patterns == 3
        assert [taken.as_integer(i) for i in range(3)] == [0, 1, 2]

    def test_slice_middle(self, ps):
        mid = ps.slice(2, 5)
        assert [mid.as_integer(i) for i in range(3)] == [2, 3, 4]

    def test_slice_bounds_checked(self, ps):
        with pytest.raises(IndexError):
            ps.slice(5, 3)
        with pytest.raises(IndexError):
            ps.slice(0, 99)

    def test_concat(self, ps):
        both = ps.take(2).concat(ps.slice(6, 8))
        assert [both.as_integer(i) for i in range(4)] == [0, 1, 6, 7]

    def test_concat_width_mismatch(self, ps):
        with pytest.raises(SimulationError):
            ps.concat(PatternSet.exhaustive(2))

    def test_select_reorders(self, ps):
        sel = ps.select([7, 0, 7])
        assert [sel.as_integer(i) for i in range(3)] == [7, 0, 7]

    def test_len(self, ps):
        assert len(ps) == 8

    @given(st.integers(2, 5), st.integers(1, 40), st.integers(0, 100))
    def test_slice_concat_identity(self, width, count, seed):
        ps = PatternSet.random(width, count, seed=seed)
        cut = count // 2
        rebuilt = ps.take(cut).concat(ps.slice(cut, count))
        assert rebuilt.words == ps.words
