"""Tests for pattern file I/O."""

import pytest

from repro.errors import SimulationError
from repro.sim import PatternSet
from repro.sim.pattern_io import (
    read_pattern_pairs,
    read_patterns,
    write_patterns,
)


class TestBitstringFormat:
    def test_round_trip(self):
        original = PatternSet.random(6, 20, seed=4)
        text = write_patterns(original)
        loaded = read_patterns(text)
        assert loaded.words == original.words

    def test_comments_and_blanks_ignored(self):
        loaded = read_patterns("# header\n101\n\n# mid\n010\n")
        assert loaded.num_patterns == 2
        assert loaded.vector(0) == (1, 0, 1)

    def test_bad_characters_rejected(self):
        with pytest.raises(SimulationError):
            read_patterns("10X\n")

    def test_ragged_rejected(self):
        with pytest.raises(SimulationError):
            read_patterns("101\n10\n")

    def test_empty_needs_width(self):
        with pytest.raises(SimulationError):
            read_patterns("# nothing\n")
        loaded = read_patterns("# nothing\n", num_inputs=3)
        assert loaded.num_patterns == 0

    def test_file_round_trip(self, tmp_path):
        original = PatternSet.exhaustive(3)
        path = tmp_path / "vectors.txt"
        write_patterns(original, path)
        assert read_patterns(path).words == original.words


#: Each reader with a two-line document in its format.
READERS = [
    pytest.param(read_patterns, "101\n010\n", id="bitstring"),
    pytest.param(read_pattern_pairs, "101 110\n010 011\n", id="pairs"),
]


class TestSourceResolution:
    """Both readers resolve a text-or-path argument by the same rule."""

    @pytest.mark.parametrize("reader,text", READERS)
    def test_path_object_is_read(self, reader, text, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text(text)
        assert reader(path) == reader(text)

    @pytest.mark.parametrize("reader,text", READERS)
    def test_one_line_naming_a_file_is_read(self, reader, text, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text(text)
        assert reader(str(path)).num_patterns == 2

    @pytest.mark.parametrize("reader,text", READERS)
    def test_one_line_naming_no_file_is_inline(self, reader, text,
                                               tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        first = text.splitlines()[0]
        assert reader(first) == reader(first + "\n")
        assert reader(first).num_patterns == 1

    @pytest.mark.parametrize("reader,text", READERS)
    def test_missing_file_is_reported_as_content(self, reader, text,
                                                 tmp_path):
        missing = str(tmp_path / "missing.txt")
        with pytest.raises(SimulationError, match="line 1: .*missing.txt"):
            reader(missing)

    @pytest.mark.parametrize("reader,text", READERS)
    def test_line_too_long_for_a_file_name_is_inline(self, reader, text):
        first = text.splitlines()[0]
        width = len(first.split()[0])
        long_line = " ".join(cell * 1000 for cell in first.split())
        loaded = reader(long_line)
        assert loaded.num_patterns == 1
        assert loaded.num_inputs == width * 1000
