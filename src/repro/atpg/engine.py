"""The paper's test-generation procedure: ordered targets, fault dropping.

Section 4 of the paper: "The test generation procedure we use does not
include any dynamic compaction heuristics" — it simply walks the ordered
fault set, generates a test for each still-undetected fault, and drops
every fault the new test detects.  The *only* experimental variable is
the order of the fault list, which is what makes the accidental detection
index measurable.

:func:`ordered_tests` is that loop, written once for every fault model:
a model supplies only the step that turns a target into a test (or into
the status the target ends in) and the container its tests pack into.
:func:`generate_tests` supplies the stuck-at step — the target's PODEM
cube with its X positions filled — and
:func:`~repro.atpg.transition.generate_transition_tests` the two-pattern
one.  Both return one :class:`TestGenResult` holding everything the
experiment tables need (test count, run time, per-test detection counts,
per-fault outcomes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.atpg.podem import PodemEngine, PodemStatus
from repro.atpg.random_fill import fill_cube
from repro.circuit.flatten import CompiledCircuit
from repro.errors import AtpgError
from repro.faults.model import Fault
from repro.faults.registry import query_detection_matrix
from repro.faults.sets import FaultStatus
from repro.fsim.backend import resolve_backend
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class TestGenConfig:
    """Knobs of the test-generation run.

    ``backtrack_limit`` bounds PODEM per fault (aborted faults stay in the
    list but are not retargeted); ``fill`` is the X-fill policy
    (``random``/``zero``/``one``); ``seed`` drives the fill RNG;
    ``backend`` names the fault-simulation engine used for dropping
    (``None`` — registry default, see :mod:`repro.fsim.backend`).
    """

    # Not a test class despite the Test* name: keep pytest collection away
    # from test modules that import it.
    __test__ = False

    backtrack_limit: int = 200
    fill: str = "random"
    seed: int = 0
    backend: Optional[str] = None


@dataclass
class TestGenResult:
    """Everything a test-generation run produced, for any fault model.

    ``tests`` is a :class:`PatternSet` of vectors (stuck-at) or a
    :class:`PatternPairSet` of launch/capture pairs (transition);
    ``detected_per_test[i]`` counts the faults dropped by test ``i``
    (its target plus accidental detections) — the raw material of the
    paper's argument.  ``podem_calls`` and ``backtracks`` count every
    PODEM query of the run, including a stuck-at fault asked for again
    (a transition launch fallback that is also another target's capture
    query): the run replays that fault's first outcome and adds its
    recorded backtracks again rather than searching a second time.
    """

    __test__ = False  # Test* name, but not a pytest test class

    circuit_name: str
    tests: Union[PatternSet, PatternPairSet]
    status: Dict[Any, FaultStatus]
    detected_per_test: List[int]
    targeted_faults: List[Any]
    podem_calls: int = 0
    backtracks: int = 0
    runtime_seconds: float = 0.0

    @property
    def num_tests(self) -> int:
        """Size of the generated test set (the paper's Table 5 quantity)."""
        return self.tests.num_patterns

    def _count(self, status: FaultStatus) -> int:
        return sum(1 for s in self.status.values() if s == status)

    @property
    def num_detected(self) -> int:
        """Faults detected by the final test set."""
        return self._count(FaultStatus.DETECTED)

    @property
    def num_undetectable(self) -> int:
        """Faults proven undetectable during the run."""
        return self._count(FaultStatus.UNDETECTABLE)

    @property
    def num_aborted(self) -> int:
        """Faults abandoned at the backtrack limit (or, for a transition
        target, at an unjustifiable launch)."""
        return self._count(FaultStatus.ABORTED)

    def fault_coverage(self) -> float:
        """Detected fraction of all target faults."""
        return self.num_detected / len(self.status) if self.status else 1.0

    def fault_efficiency(self) -> float:
        """Detected fraction of the faults not proven undetectable.

        Unlike :meth:`fault_coverage`, a proven-redundant fault does not
        count against the run; an aborted one does.
        """
        testable = len(self.status) - self.num_undetectable
        return self.num_detected / testable if testable else 1.0


def ordered_tests(
    circ: CompiledCircuit,
    ordered_faults: Sequence,
    config: TestGenConfig,
    fill_stream: str,
    make_test: Callable,
    to_block: Callable,
) -> TestGenResult:
    """The paper's procedure for any fault model: walk, generate, drop.

    Each still-undetected target goes to ``make_test(fault, podem,
    fill)``, which returns its test or the status it ends in
    (``UNDETECTABLE`` or ``ABORTED``).  ``podem(fault)`` returns the
    PODEM cube or the status of an unsuccessful run, counting every
    call; it searches once per fault and replays that outcome when the
    fault comes back.  ``fill(cube)`` fills X positions from the RNG stream
    ``<fill_stream>:<circuit name>``.  ``to_block(tests)`` packs tests
    into the model's container: one new test at a time for dropping
    through :func:`repro.faults.registry.query_detection_matrix`, and
    all of them for :attr:`TestGenResult.tests`.
    """
    if len(set(ordered_faults)) != len(ordered_faults):
        raise AtpgError("ordered fault list contains duplicates")

    engine = PodemEngine(circ)
    dropper = resolve_backend(circ, config.backend)
    fill_rng = make_rng(config.seed, f"{fill_stream}:{circ.name}")
    status = {f: FaultStatus.UNDETECTED for f in ordered_faults}
    tests: list = []
    detected_per_test: List[int] = []
    targeted: list = []
    podem_calls = 0
    backtracks = 0
    # fault -> (cube or status, backtracks) of its one PODEM search.
    outcomes: Dict[Fault, tuple] = {}

    def podem(fault: Fault):
        nonlocal podem_calls, backtracks
        if fault not in outcomes:
            result = engine.run(fault, backtrack_limit=config.backtrack_limit)
            outcome = (result.cube if result.status == PodemStatus.SUCCESS
                       else FaultStatus(result.status.value))
            outcomes[fault] = outcome, result.backtracks
        outcome, fault_backtracks = outcomes[fault]
        podem_calls += 1
        backtracks += fault_backtracks
        return outcome

    def fill(cube):
        return fill_cube(cube, config.fill, fill_rng)

    started = time.perf_counter()
    for fault in ordered_faults:
        if status[fault] != FaultStatus.UNDETECTED:
            continue
        test = make_test(fault, podem, fill)
        if isinstance(test, FaultStatus):
            status[fault] = test
            continue
        # Aborted faults stay in the simulation list: a later test may
        # still detect them accidentally, as in any real flow.
        candidates = [
            other for other, other_status in status.items()
            if other_status in (FaultStatus.UNDETECTED, FaultStatus.ABORTED)
        ]
        matrix = query_detection_matrix(dropper, to_block([test]), candidates)
        hits = np.flatnonzero(matrix.any_rows())
        for i in hits:
            status[candidates[i]] = FaultStatus.DETECTED
        if status[fault] != FaultStatus.DETECTED:
            raise AtpgError(
                f"test for {fault.describe(circ)} does not detect it; "
                "engine bug"
            )
        tests.append(test)
        detected_per_test.append(len(hits))
        targeted.append(fault)

    return TestGenResult(
        circuit_name=circ.name,
        tests=to_block(tests),
        status=status,
        detected_per_test=detected_per_test,
        targeted_faults=targeted,
        podem_calls=podem_calls,
        backtracks=backtracks,
        runtime_seconds=time.perf_counter() - started,
    )


def generate_tests(
    circ: CompiledCircuit,
    ordered_faults: Sequence[Fault],
    config: Optional[TestGenConfig] = None,
) -> TestGenResult:
    """Ordered stuck-at test generation with fault dropping.

    ``ordered_faults`` is the target list *in target order* — the output
    of one of the :mod:`repro.adi.ordering` functions.  A target's test
    is its PODEM cube with the X positions filled.
    """
    def make_test(fault, podem, fill):
        cube = podem(fault)
        return cube if isinstance(cube, FaultStatus) else fill(cube)

    return ordered_tests(
        circ, ordered_faults, config or TestGenConfig(), "fill", make_test,
        lambda vectors: PatternSet.from_vectors(vectors, circ.num_inputs),
    )
