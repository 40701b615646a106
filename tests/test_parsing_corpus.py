"""Failure-injection corpus for the file-format parsers.

Every entry is a malformed input paired with the reason it must be
rejected; the parsers must fail loudly (never silently mis-parse) and
carry actionable messages.
"""

import pytest

from repro.circuit import parse_bench
from repro.errors import BenchParseError, ReproError, SimulationError
from repro.sim.pattern_io import read_patterns

BAD_BENCH = [
    ("y = AND(a,)", "dangling comma leaves arity intact but a is undriven"),
    ("INPUT()", "empty input name"),
    ("OUTPUT(", "unterminated output"),
    ("y == AND(a, b)", "double equals"),
    ("y = AND a, b", "missing parens"),
    ("y = (a, b)", "missing gate name"),
    ("= AND(a, b)", "missing target"),
    ("y = DFF(a, b)\nINPUT(a)\nINPUT(b)", "DFF arity"),
    ("INPUT(a)\nINPUT(a)", "duplicate input"),
    ("INPUT(a)\ny = AND(a, a)\ny = OR(a, a)", "duplicate driver"),
    ("INPUT(a)\ny = FOO(a)", "unknown gate"),
]


class TestBenchCorpus:
    @pytest.mark.parametrize(
        "text,reason", BAD_BENCH, ids=[r for __, r in BAD_BENCH]
    )
    def test_rejected(self, text, reason):
        with pytest.raises(ReproError):
            circuit = parse_bench(text + "\n")
            # Inputs that parse must still fail structural validation.
            from repro.circuit import compile_circuit

            compile_circuit(circuit)

    def test_error_message_actionable(self):
        try:
            parse_bench("INPUT(a)\nthis is junk\n")
        except BenchParseError as exc:
            assert "line 2" in str(exc)
            assert "junk" in str(exc)
        else:  # pragma: no cover
            pytest.fail("junk line accepted")


BAD_PATTERNS = [
    ("01\n0A\n", "hex digit"),
    ("01\n0\n", "ragged"),
    ("2\n", "non-binary"),
]


class TestPatternCorpus:
    @pytest.mark.parametrize(
        "text,reason", BAD_PATTERNS, ids=[r for __, r in BAD_PATTERNS]
    )
    def test_rejected(self, text, reason):
        with pytest.raises(SimulationError):
            read_patterns(text)


class TestRoundTripUnderStress:
    """Whitespace/comment torture cases that must parse identically."""

    def test_bench_extreme_whitespace(self):
        spaced = (
            "  INPUT( a )\n"
            "\tOUTPUT( y )\n"
            "   y   =   NAND(  a ,a  )  # trailing\n"
        )
        from repro.circuit import compile_circuit

        circ = compile_circuit(parse_bench(spaced))
        assert circ.num_gates == 1
        assert len(circ.fanin[circ.node_of("y")]) == 2
