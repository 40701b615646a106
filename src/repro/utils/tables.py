"""Fixed-width text tables in the style of the paper's result tables.

The experiment harness prints its results with these helpers so that a run
of ``python -m repro.experiments table5`` produces rows directly comparable
to the rows of the published table.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    min_width: int = 6,
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width text table.

    Column widths adapt to content; the first column (circuit names in all
    the paper's tables) is left-aligned, the rest right-aligned.
    """
    materialized: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.3f}")
            else:
                cells.append(str(value))
        materialized.append(cells)

    num_cols = len(headers)
    for i, row in enumerate(materialized):
        if len(row) != num_cols:
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {num_cols}"
            )

    widths = [max(min_width, len(h)) for h in headers]
    for row in materialized:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts.extend(cell.rjust(widths[c + 1]) for c, cell in enumerate(cells[1:]))
        return "  ".join(parts)

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-" * (sum(widths) + 2 * (num_cols - 1)))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)
