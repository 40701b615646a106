"""Tests for two-pattern containers (PatternPairSet) and pair file I/O."""

import pytest

from repro.errors import SimulationError
from repro.sim import read_pattern_pairs, write_pattern_pairs
from repro.sim.patterns import PatternPairSet, PatternSet


@pytest.fixture(scope="module")
def pairs():
    return PatternPairSet.random(5, 37, seed=7)


class TestConstruction:
    def test_mismatched_inputs_raise(self):
        with pytest.raises(SimulationError, match="inputs"):
            PatternPairSet(PatternSet.random(3, 4), PatternSet.random(4, 4))

    def test_mismatched_widths_raise(self):
        with pytest.raises(SimulationError, match="patterns"):
            PatternPairSet(PatternSet.random(3, 4), PatternSet.random(3, 5))

    def test_from_vector_pairs(self):
        pairs = PatternPairSet.from_vector_pairs(
            [([0, 1], [1, 1]), ([1, 0], [0, 1])]
        )
        assert pairs.num_inputs == 2
        assert pairs.num_patterns == 2
        assert pairs.pair(0) == ((0, 1), (1, 1))
        assert pairs.pair(1) == ((1, 0), (0, 1))

    def test_random_deterministic(self):
        a = PatternPairSet.random(6, 20, seed=3)
        b = PatternPairSet.random(6, 20, seed=3)
        assert a == b
        assert a != PatternPairSet.random(6, 20, seed=4)

    def test_random_halves_independent(self):
        pairs = PatternPairSet.random(8, 64, seed=0)
        assert pairs.launch != pairs.capture


class TestSlicing:
    def test_take_slice_select(self, pairs):
        assert pairs.take(5).num_patterns == 5
        sliced = pairs.slice(10, 20)
        assert sliced.pair(0) == pairs.pair(10)
        selected = pairs.select([3, 3, 0])
        assert selected.pair(0) == selected.pair(1) == pairs.pair(3)
        assert selected.pair(2) == pairs.pair(0)

    def test_concat(self, pairs):
        joined = pairs.take(4).concat(pairs.slice(4, 9))
        assert joined.num_patterns == 9
        for p in range(9):
            assert joined.pair(p) == pairs.pair(p)

    def test_len(self, pairs):
        assert len(pairs) == pairs.num_patterns


class TestPairIO:
    def test_round_trip(self, pairs, tmp_path):
        path = tmp_path / "pairs.txt"
        write_pattern_pairs(pairs, path)
        loaded = read_pattern_pairs(path)
        assert loaded == pairs

    def test_round_trip_text(self, pairs):
        assert read_pattern_pairs(write_pattern_pairs(pairs)) == pairs

    def test_comments_and_blank_lines(self):
        text = "# header\n\n101 110  # trailing\n"
        loaded = read_pattern_pairs(text)
        assert loaded.num_patterns == 1
        assert loaded.pair(0) == ((1, 0, 1), (1, 1, 0))

    def test_empty_needs_num_inputs(self):
        with pytest.raises(SimulationError, match="num_inputs"):
            read_pattern_pairs("# nothing\n")
        empty = read_pattern_pairs("# nothing\n", num_inputs=4)
        assert empty.num_patterns == 0
        assert empty.num_inputs == 4

    def test_malformed_lines_raise(self):
        with pytest.raises(SimulationError, match="launch capture"):
            read_pattern_pairs("101\n")
        with pytest.raises(SimulationError, match="bitstring"):
            read_pattern_pairs("10x 110\n")
        with pytest.raises(SimulationError, match="bits"):
            read_pattern_pairs("10 110\n")
