"""Fault dictionaries.

A *fault dictionary* precomputes, for every modeled fault, which tests
fail and (for the full dictionary) which outputs flip per failing test.
Diagnosis then reduces to matching observed tester behaviour against the
dictionary — the classical cause-effect approach.

Two flavours:

* :class:`PassFailDictionary` — per fault, the set of failing tests,
  one packed :class:`~repro.utils.detmatrix.DetectionMatrix` row per
  fault (bit ``t`` = test ``t`` fails).  Compact; enough for most
  candidate ranking, which runs vectorized over the matrix.
* :class:`FaultDictionary` — per fault and failing test, the exact
  failing-output set (full response signature).  Larger but sharper.

Connection to the paper: a steep fault-coverage curve (the paper's
second application) minimizes the *expected index of the first failing
test*, which is exactly what drives tester time per defective chip;
:func:`repro.diagnosis.locate.expected_tests_to_first_fail` measures
that quantity from a pass/fail dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple, Union

from repro.circuit.flatten import CompiledCircuit
from repro.errors import DiagnosisInputError, SimulationError
from repro.faults.model import Fault
from repro.fsim.backend import FaultSimBackend, resolve_backend
from repro.sim.patterns import PatternSet
from repro.utils.bitvec import iter_bits
from repro.utils.detmatrix import DetectionMatrix


def validate_observed_mask(observed_mask: int, num_tests: int) -> int:
    """Check one observed failing-test mask against the test-set width.

    A mask with bits set at or beyond ``num_tests`` names phantom tests
    the dictionary never simulated; scoring it silently would produce
    confident nonsense, so it is rejected with a
    :class:`~repro.errors.DiagnosisInputError` (a ``ValueError``) naming
    the offending bits.  Returns the validated mask.
    """
    if not isinstance(observed_mask, int):
        raise DiagnosisInputError(
            f"observed mask must be an int, got "
            f"{type(observed_mask).__name__}"
        )
    if observed_mask < 0:
        raise DiagnosisInputError(
            f"observed mask must be non-negative, got {observed_mask}"
        )
    if observed_mask >> num_tests:
        bad = [t for t in iter_bits(observed_mask) if t >= num_tests]
        raise DiagnosisInputError(
            f"observed mask has bits at tests {bad[:8]}, but the "
            f"dictionary covers only tests 0..{num_tests - 1}"
        )
    return observed_mask


@dataclass(frozen=True)
class PassFailDictionary:
    """Per-fault failing tests over a fixed test set.

    Row ``i`` of ``fail_matrix`` is fault ``i``'s failing-test set: bit
    ``t`` set iff test ``t`` fails under the fault.
    """

    faults: Tuple[Fault, ...]
    fail_matrix: DetectionMatrix

    @property
    def num_tests(self) -> int:
        """Tests the dictionary covers (the matrix width)."""
        return self.fail_matrix.num_patterns

    def position(self, fault: Fault) -> int:
        """Index of ``fault`` in the dictionary (O(1) after first call)."""
        positions = getattr(self, "_positions", None)
        if positions is None:
            positions = {f: i for i, f in enumerate(self.faults)}
            object.__setattr__(self, "_positions", positions)
        return positions[fault]

    def failing_tests(self, fault: Fault) -> List[int]:
        """Indices of tests that fail when ``fault`` is present."""
        return self.fail_matrix.row_indices(self.position(fault)).tolist()

    def detected_faults(self) -> List[Fault]:
        """Faults the test set detects at all."""
        return [f for f, hit in zip(self.faults, self.fail_matrix.any_rows())
                if hit]


@dataclass(frozen=True)
class FaultDictionary:
    """Full-response dictionary: failing outputs per (fault, test).

    ``signatures[i]`` maps a failing test index to the frozen set of
    failing primary-output positions for fault ``i``.
    """

    num_tests: int
    faults: Tuple[Fault, ...]
    signatures: Tuple[Dict[int, FrozenSet[int]], ...]

    def signature(self, fault: Fault) -> Dict[int, FrozenSet[int]]:
        """The full signature of one fault."""
        positions = getattr(self, "_positions", None)
        if positions is None:
            positions = {f: i for i, f in enumerate(self.faults)}
            object.__setattr__(self, "_positions", positions)
        return self.signatures[positions[fault]]


def build_pass_fail_dictionary(circ: CompiledCircuit,
                               faults: Sequence,
                               tests,
                               backend: Union[str, FaultSimBackend, None] = None
                               ) -> PassFailDictionary:
    """Simulate every fault against the test set (no dropping).

    ``backend`` selects the fault-simulation engine — dictionary builds
    are whole-fault-universe batch jobs, exactly the shape the batched
    numpy engine is fastest at.  ``tests`` may be any registered pattern
    container (:class:`~repro.sim.patterns.PatternSet` for stuck-at,
    :class:`~repro.sim.patterns.PatternPairSet` for transition faults);
    the registry dispatches to the matching detection contract, so the
    diagnosis pipeline works for every registered fault model.
    """
    from repro.faults.registry import query_detection_matrix

    if tests.num_inputs != circ.num_inputs:
        raise SimulationError(
            f"test set has {tests.num_inputs} inputs, "
            f"circuit has {circ.num_inputs}"
        )
    engine = resolve_backend(circ, backend)
    return PassFailDictionary(
        faults=tuple(faults),
        fail_matrix=query_detection_matrix(engine, tests, faults),
    )


def build_dictionary(circ: CompiledCircuit, faults: Sequence[Fault],
                     tests: PatternSet) -> FaultDictionary:
    """Full-response dictionary via per-fault faulty output words."""
    if tests.num_inputs != circ.num_inputs:
        raise SimulationError(
            f"test set has {tests.num_inputs} inputs, "
            f"circuit has {circ.num_inputs}"
        )
    from repro.fsim.serial import output_response

    signatures: List[Dict[int, FrozenSet[int]]] = []
    good_responses = [
        output_response(circ, tests.vector(t)) for t in range(len(tests))
    ]
    for fault in faults:
        per_test: Dict[int, FrozenSet[int]] = {}
        for t in range(tests.num_patterns):
            faulty = output_response(circ, tests.vector(t), fault)
            failing = frozenset(
                k for k, (a, b) in enumerate(zip(good_responses[t], faulty))
                if a != b
            )
            if failing:
                per_test[t] = failing
        signatures.append(per_test)
    return FaultDictionary(
        num_tests=tests.num_patterns,
        faults=tuple(faults),
        signatures=tuple(signatures),
    )
