"""Named-signal circuit builder.

:class:`Circuit` is the user-facing mutable netlist: signals are strings,
gates reference their fanin by name, and DFFs may be present (they are
removed by full-scan extraction, :mod:`repro.circuit.scan`, before any
simulation).  Algorithms never run on :class:`Circuit` directly — they run
on the integer-indexed :class:`repro.circuit.flatten.CompiledCircuit`
produced by :func:`repro.circuit.flatten.compile_circuit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.circuit.gate_types import (
    BENCH_NAMES,
    NO_INPUT,
    SINGLE_INPUT,
    GateType,
)
from repro.errors import CircuitStructureError


@dataclass
class GateDef:
    """One named gate: its type and fanin signal names (in pin order)."""

    name: str
    gtype: GateType
    inputs: Tuple[str, ...]


@dataclass
class DffDef:
    """One D flip-flop: output signal name and the signal it samples."""

    name: str
    data_in: str


@dataclass
class Circuit:
    """A mutable gate-level netlist with named signals.

    Signals come into existence either as primary inputs, as gate outputs,
    or as DFF outputs.  Primary outputs are markers on existing signals.
    The builder enforces single-driver and arity rules eagerly; global
    properties (acyclicity, no dangling references) are checked by
    :func:`repro.circuit.validate.validate_circuit` and at compile time.
    """

    name: str = "circuit"
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    gates: List[GateDef] = field(default_factory=list)
    dffs: List[DffDef] = field(default_factory=list)
    _drivers: Dict[str, str] = field(default_factory=dict, repr=False)

    # -- construction -----------------------------------------------------

    def add_input(self, name: str) -> str:
        """Declare a primary input signal."""
        self._claim_driver(name, "input")
        self.inputs.append(name)
        return name

    def add_gate(self, name: str, gtype: GateType | str,
                 inputs: Tuple[str, ...] | List[str]) -> str:
        """Add a gate driving signal ``name``.

        ``gtype`` may be a :class:`GateType` or a ``.bench`` style name
        such as ``"NAND"``.  Fanin signals need not exist yet (forward
        references are allowed, as in ``.bench`` files).
        """
        if isinstance(gtype, str):
            try:
                gtype = BENCH_NAMES[gtype.upper()]
            except KeyError:
                raise CircuitStructureError(f"unknown gate type {gtype!r}")
        if gtype == GateType.INPUT:
            raise CircuitStructureError("use add_input() for primary inputs")
        fanin = tuple(inputs)
        if gtype in SINGLE_INPUT and len(fanin) != 1:
            raise CircuitStructureError(
                f"{gtype.name} gate {name!r} needs exactly 1 input, got {len(fanin)}"
            )
        if gtype in NO_INPUT and fanin:
            raise CircuitStructureError(
                f"{gtype.name} gate {name!r} takes no inputs"
            )
        if gtype not in NO_INPUT and not fanin:
            raise CircuitStructureError(f"gate {name!r} has no inputs")
        self._claim_driver(name, "gate")
        self.gates.append(GateDef(name=name, gtype=gtype, inputs=fanin))
        return name

    def add_dff(self, name: str, data_in: str) -> str:
        """Add a D flip-flop whose output signal is ``name``."""
        self._claim_driver(name, "dff")
        self.dffs.append(DffDef(name=name, data_in=data_in))
        return name

    def add_output(self, name: str) -> str:
        """Mark signal ``name`` as a primary output.

        The same signal may be listed as an output more than once in some
        published ``.bench`` files; duplicates are rejected here to keep
        output indexing unambiguous.
        """
        if name in self.outputs:
            raise CircuitStructureError(f"signal {name!r} already an output")
        self.outputs.append(name)
        return name

    def _claim_driver(self, name: str, kind: str) -> None:
        existing = self._drivers.get(name)
        if existing is not None:
            raise CircuitStructureError(
                f"signal {name!r} already driven by {existing}, cannot add {kind}"
            )
        self._drivers[name] = kind

    # -- queries -----------------------------------------------------------

    @property
    def is_sequential(self) -> bool:
        """True when the circuit contains flip-flops."""
        return bool(self.dffs)

    def driver_kind(self, name: str) -> Optional[str]:
        """Return ``"input"``/``"gate"``/``"dff"`` or None if undriven."""
        return self._drivers.get(name)

    def gate_map(self) -> Dict[str, GateDef]:
        """Map gate-output signal name to its :class:`GateDef`."""
        return {g.name: g for g in self.gates}

    def stats_line(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {len(self.inputs)} PIs, {len(self.outputs)} POs, "
            f"{len(self.gates)} gates, {len(self.dffs)} DFFs"
        )

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep-enough copy (gate tuples are immutable)."""
        dup = Circuit(name=name or self.name)
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        dup.gates = [GateDef(g.name, g.gtype, g.inputs) for g in self.gates]
        dup.dffs = [DffDef(d.name, d.data_in) for d in self.dffs]
        dup._drivers = dict(self._drivers)
        return dup
