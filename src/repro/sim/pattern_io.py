"""Test pattern file I/O.

Two plain-text formats, the ones ``repro testgen --write-tests`` writes:

* **bitstring** — one pattern per line, MSB = input 0, comments with
  ``#``.  The lowest-common-denominator exchange format::

      # 3 inputs
      101
      010

* **pair bitstring** — one two-pattern test per line, launch then
  capture vector separated by whitespace (transition-fault tests)::

      # 3 inputs, launch capture
      101 110
      010 011
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.sim.patterns import PatternPairSet, PatternSet


def _source_text(source: Union[str, Path]) -> str:
    """Resolve a text-or-path argument to file contents.

    One rule for every reader: a :class:`~pathlib.Path` is always read; a
    string containing a newline is always inline text; otherwise the
    string is read as a file when one exists at that path, and treated as
    a (single-line) inline document when none does — so parse errors for
    malformed one-liners point at the content, not at a missing file.
    """
    if isinstance(source, Path):
        return source.read_text()
    if "\n" in source:
        return source
    try:
        path = Path(source)
        if path.is_file():
            return path.read_text()
    except OSError:
        pass  # e.g. a name too long to stat: inline text
    return source


def write_patterns(patterns: PatternSet,
                   destination: Optional[Path] = None) -> str:
    """Serialize in bitstring format."""
    lines = [f"# {patterns.num_inputs} inputs, {patterns.num_patterns} patterns"]
    for vector in patterns.iter_vectors():
        lines.append("".join(str(bit) for bit in vector))
    text = "\n".join(lines) + "\n"
    if destination is not None:
        destination.write_text(text)
    return text


def read_patterns(source: Union[str, Path],
                  num_inputs: Optional[int] = None) -> PatternSet:
    """Parse bitstring format (text or path)."""
    text = _source_text(source)
    vectors: List[List[int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if set(line) - {"0", "1"}:
            raise SimulationError(
                f"line {line_no}: {line!r} is not a 0/1 bitstring"
            )
        vectors.append([int(ch) for ch in line])
    if not vectors and num_inputs is None:
        raise SimulationError("empty pattern file needs num_inputs")
    return PatternSet.from_vectors(vectors, num_inputs)


def write_pattern_pairs(pairs: PatternPairSet,
                        destination: Optional[Path] = None) -> str:
    """Serialize two-pattern tests in pair bitstring format."""
    lines = [
        f"# {pairs.num_inputs} inputs, {pairs.num_patterns} pairs, "
        "launch capture"
    ]
    for v1, v2 in pairs.iter_pairs():
        lines.append(
            "".join(str(b) for b in v1) + " " + "".join(str(b) for b in v2)
        )
    text = "\n".join(lines) + "\n"
    if destination is not None:
        destination.write_text(text)
    return text


def read_pattern_pairs(source: Union[str, Path],
                       num_inputs: Optional[int] = None) -> PatternPairSet:
    """Parse pair bitstring format (text or path)."""
    text = _source_text(source)
    rows: List[Tuple[List[int], List[int]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cells = line.split()
        if len(cells) != 2:
            raise SimulationError(
                f"line {line_no}: expected `launch capture`, got {line!r}"
            )
        for cell in cells:
            if set(cell) - {"0", "1"}:
                raise SimulationError(
                    f"line {line_no}: {cell!r} is not a 0/1 bitstring"
                )
        if len(cells[0]) != len(cells[1]):
            raise SimulationError(
                f"line {line_no}: launch has {len(cells[0])} bits, "
                f"capture has {len(cells[1])}"
            )
        rows.append(([int(c) for c in cells[0]], [int(c) for c in cells[1]]))
    if not rows and num_inputs is None:
        raise SimulationError("empty pattern-pair file needs num_inputs")
    return PatternPairSet.from_vector_pairs(rows, num_inputs)

