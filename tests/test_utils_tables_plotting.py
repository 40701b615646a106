"""Tests for report formatting helpers (tables and ASCII plots)."""

import pytest

from repro.utils.plotting import AsciiPlot, plot_coverage_curves
from repro.utils.tables import render_table


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["circuit", "tests"], [("irs208", 42)])
        lines = text.splitlines()
        assert "circuit" in lines[0]
        assert "tests" in lines[0]
        assert "irs208" in lines[-1]
        assert "42" in lines[-1]

    def test_title_line(self):
        text = render_table(["a"], [("x",)], title="Table 9")
        assert text.splitlines()[0] == "Table 9"

    def test_float_formatting(self):
        text = render_table(["a", "b"], [("r", 0.5)])
        assert "0.500" in text

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [("only-one",)])

    def test_column_alignment(self):
        text = render_table(["name", "n"], [("a", 1), ("bbbb", 1000)])
        lines = text.splitlines()
        # Right-aligned numeric column: the last characters line up.
        assert lines[-1].rstrip().endswith("1000")
        assert lines[-2].rstrip().endswith("1")

    def test_format_cell_width(self):
        # Floats print with three decimals, every other cell as str();
        # columns widen to min_width and right-align after the first.
        text = render_table(["name", "n"], [("x", 7), ("y", 0.25),
                                            ("z", "95.5")])
        assert text.splitlines()[-3:] == [
            "x            7",
            "y        0.250",
            "z         95.5",
        ]


class TestAsciiPlot:
    def test_render_contains_markers(self):
        plot = AsciiPlot(width=20, height=8)
        plot.add_series([(0.0, 0.0), (1.0, 1.0)], "o", "diag")
        text = plot.render()
        assert text.count("o") >= 2
        assert "o - diag" in text

    def test_first_series_wins_cell(self):
        plot = AsciiPlot(width=20, height=8)
        plot.add_series([(0.5, 0.5)], "a", "first")
        plot.add_series([(0.5, 0.5)], "b", "second")
        assert "a" in plot.render()

    def test_out_of_range_clamped(self):
        plot = AsciiPlot(width=20, height=8)
        plot.add_series([(2.0, -1.0)], "x", "clamped")
        assert "x" in plot.render()

    def test_marker_must_be_single_char(self):
        plot = AsciiPlot(width=20, height=8)
        with pytest.raises(ValueError):
            plot.add_series([(0, 0)], "xy", "bad")

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            AsciiPlot(width=2, height=2)

    def test_plot_coverage_curves(self):
        text = plot_coverage_curves(
            {"orig": [(0.5, 0.4)], "dynm": [(0.5, 0.8)]},
            {"orig": "o", "dynm": "d"},
            "Figure test",
        )
        assert "Figure test" in text
        assert "o - orig" in text
        assert "d - dynm" in text
