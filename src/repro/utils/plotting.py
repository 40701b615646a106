"""ASCII scatter/line plots for fault-coverage curves (paper Figure 1).

The paper's Figure 1 plots fault coverage against the number of tests (as a
percentage of the largest test set) with one marker character per order:
``o`` for ``orig``, ``d`` for ``dynm``, ``z`` for ``0dynm``.  We reproduce
the same style on a character grid so the figure can be regenerated in any
terminal (``python -m repro.experiments figure1``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class AsciiPlot:
    """A character-grid plot with 0..1 normalized axes.

    Points are plotted with single-character markers; later series do not
    overwrite earlier ones at the same cell, which mimics the overlaid
    scatter style of the paper's figure.
    """

    def __init__(self, width: int = 72, height: int = 24,
                 x_label: str = "x", y_label: str = "y"):
        if width < 10 or height < 5:
            raise ValueError("plot grid too small to be readable")
        self.width = width
        self.height = height
        self.x_label = x_label
        self.y_label = y_label
        self._grid: List[List[str]] = [
            [" "] * width for _ in range(height)
        ]
        self._legend: List[Tuple[str, str]] = []

    def add_series(
        self,
        points: Sequence[Tuple[float, float]],
        marker: str,
        label: str,
    ) -> None:
        """Plot ``points`` (x, y in [0, 1]) with ``marker``."""
        if len(marker) != 1:
            raise ValueError("marker must be a single character")
        self._legend.append((marker, label))
        for x, y in points:
            x = min(max(x, 0.0), 1.0)
            y = min(max(y, 0.0), 1.0)
            col = round(x * (self.width - 1))
            row = self.height - 1 - round(y * (self.height - 1))
            if self._grid[row][col] == " ":
                self._grid[row][col] = marker

    def render(self, title: str | None = None) -> str:
        """Render the grid with axes, labels and the legend."""
        lines: List[str] = []
        if title:
            lines.append(title)
        top = f"100% {self.y_label}"
        lines.append(top)
        for row in self._grid:
            lines.append("|" + "".join(row))
        lines.append("+" + "-" * self.width)
        axis = f"0%{' ' * (self.width // 2 - 6)}50%{' ' * (self.width // 2 - 6)}100% {self.x_label}"
        lines.append(axis)
        for marker, label in self._legend:
            lines.append(f"  {marker} - {label}")
        return "\n".join(lines)


def plot_coverage_curves(
    curves: Dict[str, Sequence[Tuple[float, float]]],
    markers: Dict[str, str],
    title: str,
    width: int = 72,
    height: int = 24,
) -> str:
    """Render several coverage curves on one grid, paper-Figure-1 style.

    ``curves`` maps a series label to (tests fraction, coverage fraction)
    points; ``markers`` maps the same labels to their single-character
    markers.
    """
    plot = AsciiPlot(width=width, height=height, x_label="tests", y_label="f.c.")
    for label, points in curves.items():
        plot.add_series(points, markers[label], label)
    return plot.render(title=title)
