"""Logic simulation: bit-parallel (big-int and numpy), 3-valued, patterns.

Single vectors live in :class:`PatternSet`; two-pattern transition tests
(launch/capture pairs) in :class:`PatternPairSet`.
"""

from repro.sim.bitsim import (
    eval_gate_words,
    simulate,
    simulate_outputs,
    simulate_vector,
    simulate_words,
)
from repro.sim.pattern_io import (
    read_pattern_pairs,
    read_patterns,
    write_pattern_pairs,
    write_patterns,
)
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.sim.threeval import ONE, X, ZERO, eval_gate3, simulate3

__all__ = [
    "ONE",
    "PatternPairSet",
    "PatternSet",
    "X",
    "ZERO",
    "eval_gate3",
    "eval_gate_words",
    "read_pattern_pairs",
    "read_patterns",
    "simulate",
    "simulate3",
    "simulate_outputs",
    "simulate_vector",
    "simulate_words",
    "write_pattern_pairs",
    "write_patterns",
]
