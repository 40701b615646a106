"""Seeded synthetic combinational circuit generator.

The published experiments run on the combinational logic of ISCAS-89 and
ITC-99 benchmarks, whose netlists are not redistributable here.  This
generator produces *calibrated stand-ins*: levelized multi-output circuits
with realistic fanout, reconvergence, and a tunable share of
random-pattern-resistant logic.  The experiment suite
(:mod:`repro.experiments.suite`) instantiates one circuit per paper
benchmark with the same primary-input count.

Generation is fully deterministic given the spec (seed included), so every
table ``python -m repro.experiments`` prints is reproducible bit-for-bit.

Construction outline:

1. Gates are created one at a time; fanin is drawn either from a recent
   window of signals (with probability ``locality``) or uniformly from all
   existing signals.  High locality yields deep, chained logic; low
   locality yields shallow, wide logic.
2. The first ``num_inputs`` gates each consume one distinct primary input,
   so no input is left dangling.
3. A share ``hardness`` of gates is forced to be wide AND/NOR gates, whose
   outputs are low-activity signals under random patterns — these create
   the hard-to-detect faults that give the paper's ``ADI(f) = 0`` regime.
4. Sink signals beyond the output budget are merged by a balanced
   XOR/OR compression tree so that every gate reaches an output (strict
   validation would otherwise reject dead logic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuit.flatten import CompiledCircuit, compile_circuit
from repro.circuit.gate_types import GateType
from repro.circuit.netlist import Circuit
from repro.circuit.validate import validate_circuit
from repro.errors import CircuitStructureError
from repro.sim.bitsim import eval_gate_words
from repro.utils.rng import make_rng

#: Default relative frequency of gate types in generated logic.  The mix
#: loosely follows the gate profile of synthesized control logic: NAND/NOR
#: heavy, a sprinkle of XOR, some inverters.
DEFAULT_GATE_WEIGHTS: Dict[GateType, float] = {
    GateType.AND: 0.16,
    GateType.NAND: 0.22,
    GateType.OR: 0.14,
    GateType.NOR: 0.18,
    GateType.XOR: 0.08,
    GateType.XNOR: 0.04,
    GateType.NOT: 0.13,
    GateType.BUF: 0.05,
}

#: Default fanin-width distribution for multi-input gates.
DEFAULT_FANIN_WEIGHTS: Dict[int, float] = {2: 0.62, 3: 0.28, 4: 0.10}


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic circuit.

    ``hardness`` is the fraction of gates replaced by wide AND/NOR cones
    (random-pattern-resistant logic); ``locality`` in [0, 1] is the bias
    towards recently created signals when picking fanin (depth control);
    ``consume_bias`` is the bias towards signals nothing has consumed yet,
    which keeps the sink count — and hence the amount of redundancy-prone
    merge logic — low.
    """

    name: str
    num_inputs: int
    num_gates: int
    num_outputs: int
    seed: int
    locality: float = 0.72
    window: int = 48
    hardness: float = 0.04
    hard_width: int = 4
    consume_bias: float = 0.55
    probe_patterns: int = 256
    gate_weights: Tuple[Tuple[GateType, float], ...] = tuple(
        DEFAULT_GATE_WEIGHTS.items()
    )
    fanin_weights: Tuple[Tuple[int, float], ...] = tuple(
        DEFAULT_FANIN_WEIGHTS.items()
    )

    def validate(self) -> None:
        """Reject specs that cannot produce a valid circuit."""
        if self.num_inputs < 2:
            raise CircuitStructureError("need at least 2 primary inputs")
        if self.num_gates < self.num_inputs:
            raise CircuitStructureError(
                f"{self.name}: num_gates ({self.num_gates}) must be >= "
                f"num_inputs ({self.num_inputs}) so every input is used"
            )
        if self.num_outputs < 1:
            raise CircuitStructureError("need at least one output")
        if not 0.0 <= self.locality <= 1.0:
            raise CircuitStructureError("locality must be in [0, 1]")
        if not 0.0 <= self.hardness <= 0.5:
            raise CircuitStructureError("hardness must be in [0, 0.5]")
        if not 0.0 <= self.consume_bias <= 1.0:
            raise CircuitStructureError("consume_bias must be in [0, 1]")
        if self.probe_patterns < 32:
            raise CircuitStructureError("probe_patterns must be >= 32")


def _weighted_choice(rng: random.Random,
                     items: Sequence[Tuple[object, float]]) -> object:
    total = sum(w for _, w in items)
    pick = rng.random() * total
    acc = 0.0
    for value, weight in items:
        acc += weight
        if pick < acc:
            return value
    return items[-1][0]


def _pick_fanin(rng: random.Random, signals: List[str], count: int,
                spec: "GeneratorSpec", unconsumed: List[str],
                roots: Dict[str, str],
                forced: str | None = None) -> List[str]:
    """Pick ``count`` distinct fanin signals, optionally including one.

    Selection order of preference, each applied probabilistically:
    not-yet-consumed signals (keeps the sink count low), then the recent
    window (controls depth), then anything.

    ``roots`` maps each signal to its alias root through BUF/NOT chains;
    two signals with the same root are never combined in one fanin set —
    pairs like ``XOR(a, NOT(a))`` would be constants, seeding structural
    redundancy throughout their fanout cones.
    """
    chosen: List[str] = [forced] if forced is not None else []
    chosen_roots = {roots[s] for s in chosen}
    recent = signals[-spec.window:]
    attempts = 0
    while len(chosen) < count:
        roll = rng.random()
        if unconsumed and roll < spec.consume_bias:
            pool = unconsumed
        elif roll < spec.consume_bias + (1 - spec.consume_bias) * spec.locality:
            pool = recent
        else:
            pool = signals
        candidate = pool[rng.randrange(len(pool))]
        if roots[candidate] not in chosen_roots:
            chosen.append(candidate)
            chosen_roots.add(roots[candidate])
        attempts += 1
        if attempts > 50 * count:
            # Tiny pools can make distinct sampling slow; fall back to a
            # direct sample from everything.
            remaining = [
                s for s in signals if roots[s] not in chosen_roots
            ]
            rng.shuffle(remaining)
            for extra in remaining[: count - len(chosen)]:
                chosen.append(extra)
                chosen_roots.add(roots[extra])
            break
    rng.shuffle(chosen)
    return chosen


def generate_circuit(spec: GeneratorSpec) -> CompiledCircuit:
    """Generate, compile and strictly validate a synthetic circuit.

    Every candidate gate is *probed* over a fixed block of random input
    patterns before being accepted: a gate whose sampled function is
    constant on the block is redrawn (and a truly constant function can
    never pass the probe).  Correlated AND/NOR cascades over overlapping
    support would otherwise produce semantically constant nodes whose
    entire fanout cones are untestable — precisely the redundancy the
    paper's irredundant benchmarks do not have.
    """
    spec.validate()
    rng = make_rng(spec.seed, f"generator:{spec.name}")
    circuit = Circuit(name=spec.name)

    probe_bits = spec.probe_patterns
    probe_mask = (1 << probe_bits) - 1
    probe_rng = make_rng(spec.seed, f"probe:{spec.name}")

    signals: List[str] = []
    unconsumed: List[str] = []
    roots: Dict[str, str] = {}
    words: Dict[str, int] = {}
    for i in range(spec.num_inputs):
        name = circuit.add_input(f"i{i}")
        signals.append(name)
        unconsumed.append(name)
        roots[name] = name
        word = probe_rng.getrandbits(probe_bits)
        while word == 0 or word == probe_mask:  # pragma: no cover - 2^-256
            word = probe_rng.getrandbits(probe_bits)
        words[name] = word

    gate_weights = list(spec.gate_weights)
    fanin_weights = list(spec.fanin_weights)
    gate_no = 0

    def next_name() -> str:
        nonlocal gate_no
        gate_no += 1
        return f"g{gate_no}"

    unconsumed_set = set(unconsumed)

    def consume(names: List[str]) -> None:
        for used in names:
            if used in unconsumed_set:
                unconsumed_set.discard(used)
                unconsumed.remove(used)

    def probe(gtype: GateType, fanin: List[str]) -> int:
        return eval_gate_words(
            gtype, [words[s] for s in fanin], probe_mask
        )

    def draw_candidate(forced: str | None) -> Tuple[GateType, List[str]]:
        if rng.random() < spec.hardness:
            # Random-pattern-resistant block: a wide AND or NOR whose
            # output is 1 with probability 2^-width under random inputs.
            gtype = GateType.AND if rng.random() < 0.5 else GateType.NOR
            width = min(spec.hard_width, len(signals))
            return gtype, _pick_fanin(rng, signals, width, spec, unconsumed,
                                      roots, forced)
        gtype = _weighted_choice(rng, gate_weights)
        if gtype in (GateType.NOT, GateType.BUF):
            if forced is not None:
                return gtype, [forced]
            return gtype, _pick_fanin(rng, signals, 1, spec, unconsumed, roots)
        count = _weighted_choice(rng, fanin_weights)
        count = max(2, min(count, len(signals)))
        return gtype, _pick_fanin(rng, signals, count, spec, unconsumed,
                                  roots, forced)

    for idx in range(spec.num_gates):
        forced = signals[idx] if idx < spec.num_inputs else None
        gtype, fanin = draw_candidate(forced)
        word = probe(gtype, fanin)
        attempts = 0
        while (word == 0 or word == probe_mask) and attempts < 24:
            gtype, fanin = draw_candidate(forced)
            word = probe(gtype, fanin)
            attempts += 1
        if word == 0 or word == probe_mask:
            # Guaranteed-nonconstant fallback: invert one existing signal
            # (its probe word is nonconstant by induction).
            source = forced if forced is not None else signals[
                rng.randrange(len(signals))
            ]
            gtype, fanin = GateType.NOT, [source]
            word = probe(gtype, fanin)

        consume(fanin)
        name = circuit.add_gate(next_name(), gtype, tuple(fanin))
        signals.append(name)
        unconsumed.append(name)
        unconsumed_set.add(name)
        words[name] = word
        # BUF/NOT outputs alias their source's root; everything else is
        # its own root.
        if gtype in (GateType.NOT, GateType.BUF):
            roots[name] = roots[fanin[0]]
        else:
            roots[name] = name

    _connect_outputs(circuit, spec, rng, signals, next_name, roots, words,
                     probe_mask)

    compiled = compile_circuit(circuit)
    validate_circuit(compiled, strict=True).raise_if_failed()
    return compiled


def _connect_outputs(circuit: Circuit, spec: GeneratorSpec,
                     rng: random.Random, signals: List[str],
                     next_name, roots: Dict[str, str],
                     words: Dict[str, int], probe_mask: int) -> None:
    """Choose primary outputs; compress surplus sinks so nothing is dead."""
    consumed = set()
    for gate in circuit.gates:
        consumed.update(gate.inputs)
    sinks = [g.name for g in circuit.gates if g.name not in consumed]
    unused_inputs = [s for s in circuit.inputs if s not in consumed]
    sinks.extend(unused_inputs)  # defensive; construction should prevent this

    # Reduce surplus sinks pairwise with XOR gates until they fit the
    # output budget.  XOR keeps both sides fully observable, so the merge
    # tree adds (almost) no redundancy; a partner is accepted only when
    # the probe says the merged function is nonconstant (two equal or
    # complementary functions would XOR to a constant).
    rng.shuffle(sinks)
    while len(sinks) > spec.num_outputs:
        a = sinks.pop(rng.randrange(len(sinks)))
        partner = None
        merged_word = 0
        for k in range(len(sinks)):
            candidate = words[a] ^ words[sinks[k]]
            if roots[sinks[k]] != roots[a] and candidate not in (0, probe_mask):
                partner = k
                merged_word = candidate
                break
        if partner is None:
            # Every remaining sink conflicts with `a`; expose it directly.
            sinks.append(a)
            break
        b = sinks.pop(partner)
        merged = circuit.add_gate(next_name(), GateType.XOR, (a, b))
        signals.append(merged)
        roots[merged] = merged
        words[merged] = merged_word
        sinks.append(merged)

    outputs = list(sinks)
    # Top up with internal observation points if we are short of outputs,
    # mimicking circuits whose POs tap internal state lines.
    internal = [g.name for g in circuit.gates if g.name not in outputs]
    rng.shuffle(internal)
    while len(outputs) < spec.num_outputs and internal:
        outputs.append(internal.pop())
    for name in outputs:
        circuit.add_output(name)
