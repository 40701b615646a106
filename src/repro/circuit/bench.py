"""ISCAS-89 ``.bench`` format reader and writer.

The format, as distributed with the ISCAS-85/89 benchmark suites::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = NAND(G0, G1)
    G11 = DFF(G10)

Gate names are case-insensitive; signal names are case-sensitive and may
contain anything but whitespace, parentheses and commas.  ``DFF`` lines
produce sequential circuits which must go through full-scan extraction
(:mod:`repro.circuit.scan`) before compilation.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import TextIO, Union

from repro.circuit.gate_types import BENCH_NAMES, GateType
from repro.circuit.netlist import Circuit
from repro.errors import BenchParseError

_IO_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s(),]+)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(
    r"^([^\s(),=]+)\s*=\s*([A-Za-z][A-Za-z0-9]*)\s*\(\s*([^()]*)\s*\)$"
)


def parse_bench(source: Union[str, Path, TextIO], name: str | None = None) -> Circuit:
    """Parse ``.bench`` text into a :class:`Circuit`.

    ``source`` may be a path, a file object, or the text itself (anything
    containing a newline or an ``=``/``INPUT(`` marker is treated as text).
    """
    if isinstance(source, Path):
        text = source.read_text()
        default_name = source.stem
    elif isinstance(source, str):
        looks_like_text = "\n" in source or "(" in source
        if looks_like_text:
            text = source
            default_name = "bench"
        else:
            text = Path(source).read_text()
            default_name = Path(source).stem
    else:
        text = source.read()
        default_name = getattr(source, "name", "bench")
    circuit = Circuit(name=name or default_name)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            kind, signal = io_match.group(1).upper(), io_match.group(2)
            try:
                if kind == "INPUT":
                    circuit.add_input(signal)
                else:
                    circuit.add_output(signal)
            except Exception as exc:  # re-tag with the line number
                raise BenchParseError(str(exc), line_no) from exc
            continue
        gate_match = _GATE_RE.match(line)
        if gate_match:
            target, gname, arg_text = gate_match.groups()
            args = tuple(a.strip() for a in arg_text.split(",") if a.strip())
            upper = gname.upper()
            try:
                if upper == "DFF":
                    if len(args) != 1:
                        raise BenchParseError(
                            f"DFF {target!r} needs exactly one input", line_no
                        )
                    circuit.add_dff(target, args[0])
                elif upper in BENCH_NAMES:
                    circuit.add_gate(target, BENCH_NAMES[upper], args)
                else:
                    raise BenchParseError(
                        f"unknown gate type {gname!r}", line_no
                    )
            except BenchParseError:
                raise
            except Exception as exc:
                raise BenchParseError(str(exc), line_no) from exc
            continue
        raise BenchParseError(f"cannot parse {line!r}", line_no)

    return circuit


_TYPE_TO_BENCH = {
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.NOT: "NOT",
    GateType.BUF: "BUFF",
    GateType.CONST0: "CONST0",
    GateType.CONST1: "CONST1",
}


def write_bench(circuit: Circuit, destination: Union[Path, TextIO, None] = None) -> str:
    """Serialize a :class:`Circuit` to ``.bench`` text.

    Returns the text; if ``destination`` is given the text is also written
    there.  Round-trips with :func:`parse_bench` (modulo comments and
    whitespace).
    """
    buf = io.StringIO()
    buf.write(f"# {circuit.name}\n")
    buf.write(f"# {len(circuit.inputs)} inputs, {len(circuit.outputs)} outputs, ")
    buf.write(f"{len(circuit.dffs)} DFFs, {len(circuit.gates)} gates\n")
    for signal in circuit.inputs:
        buf.write(f"INPUT({signal})\n")
    for signal in circuit.outputs:
        buf.write(f"OUTPUT({signal})\n")
    for dff in circuit.dffs:
        buf.write(f"{dff.name} = DFF({dff.data_in})\n")
    for gate in circuit.gates:
        args = ", ".join(gate.inputs)
        buf.write(f"{gate.name} = {_TYPE_TO_BENCH[gate.gtype]}({args})\n")
    text = buf.getvalue()
    if isinstance(destination, Path):
        destination.write_text(text)
    elif destination is not None:
        destination.write(text)
    return text
