"""Circuit substrate: netlists, .bench I/O, compilation, generation, scan.

ISCAS ``.bench`` is the one netlist file format (:mod:`repro.circuit.bench`).
Typical flow::

    from repro.circuit import parse_bench, full_scan_extract, compile_circuit

    seq = parse_bench("s27.bench")
    comb, scan_info = full_scan_extract(seq)
    circ = compile_circuit(comb)
"""

from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.flatten import CompiledCircuit, compile_circuit, to_netlist
from repro.circuit.gate_types import GateType, controlling_value, eval_gate
from repro.circuit.generator import DEFAULT_GATE_WEIGHTS, GeneratorSpec, generate_circuit
from repro.circuit.graph import (
    output_cone,
    reaches_output,
    transitive_fanin,
)
from repro.circuit.library import (
    and_chain,
    builtin_names,
    c17,
    get_builtin,
    lion_like,
    mux2,
    redundant_demo,
    ripple_adder,
    xor_tree,
)
from repro.circuit.netlist import Circuit, DffDef, GateDef
from repro.circuit.scan import ScanInfo, full_scan_extract
from repro.circuit.validate import ValidationReport, validate_circuit

__all__ = [
    "Circuit",
    "CompiledCircuit",
    "DEFAULT_GATE_WEIGHTS",
    "DffDef",
    "GateDef",
    "GateType",
    "GeneratorSpec",
    "ScanInfo",
    "ValidationReport",
    "and_chain",
    "builtin_names",
    "c17",
    "compile_circuit",
    "controlling_value",
    "eval_gate",
    "full_scan_extract",
    "generate_circuit",
    "get_builtin",
    "lion_like",
    "mux2",
    "output_cone",
    "parse_bench",
    "reaches_output",
    "redundant_demo",
    "ripple_adder",
    "to_netlist",
    "transitive_fanin",
    "validate_circuit",
    "write_bench",
    "xor_tree",
]
