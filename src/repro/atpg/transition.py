"""Ordered two-pattern test generation for transition faults.

The paper's experimental procedure — walk the ordered fault list,
generate a test for each still-undetected fault, drop everything the new
test detects — carries over to transition faults with a pair-shaped
test.  :func:`generate_transition_tests` runs the one loop of
:func:`repro.atpg.engine.ordered_tests` and supplies only the step that
builds a pair for a target with initial value ``b`` at line ``s``:

* the **capture** vector ``v2`` comes from PODEM on the stuck-at fault
  the slow line mimics (``s`` stuck-at-``b``), exactly the existing
  deterministic engine;
* the **launch** vector ``v1`` only has to *justify* ``s = b``.  A
  fault-free simulation of a fixed random pool answers that for almost
  every line with a single word lookup (bit-parallel: one pool
  simulation per run, one mask per fault); the rare pool-resistant lines
  fall back to PODEM on the *complementary* stuck-at fault
  (``s`` stuck-at-``1-b``), whose excitation condition is precisely
  ``s = b``.

By the two-pattern reduction the assembled pair is guaranteed to detect
its target, so a target that fails to drop indicates an engine bug and
the loop raises.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.atpg.engine import TestGenConfig, TestGenResult, ordered_tests
from repro.circuit.flatten import CompiledCircuit
from repro.faults.model import Fault
from repro.faults.sets import FaultStatus
from repro.faults.transition import TransitionFault
from repro.fsim.transition import launch_line_word
from repro.sim.bitsim import simulate
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.bitvec import full_mask
from repro.utils.rng import make_rng

#: Size of the random launch-justification pool (one simulation per run).
LAUNCH_POOL_SIZE = 256


def generate_transition_tests(
    circ: CompiledCircuit,
    ordered_faults: Sequence[TransitionFault],
    config: Optional[TestGenConfig] = None,
) -> TestGenResult:
    """Ordered two-pattern test generation with fault dropping.

    ``ordered_faults`` is the transition target list *in target order* —
    the output of one of the :mod:`repro.adi.ordering` functions applied
    to a transition :class:`~repro.adi.index.AdiResult`.  A target's test
    is a (launch, capture) pair: the filled capture cube plus a launch
    vector from the random pool, or from PODEM when no pool vector fits.
    """
    config = config or TestGenConfig()
    pool = PatternSet.random(
        circ.num_inputs, LAUNCH_POOL_SIZE,
        rng=make_rng(config.seed, f"transition-pool:{circ.name}"),
    )
    pool_good = simulate(circ, pool)
    pool_mask = full_mask(pool.num_patterns)

    def make_test(fault: TransitionFault, podem, fill):
        capture = podem(fault.as_stuck_at())
        if isinstance(capture, FaultStatus):
            # No v2 can observe the frozen value (or PODEM gave up): the
            # transition fault ends the same way.
            return capture
        line = launch_line_word(circ, pool_good, fault) & pool_mask
        candidates = line if fault.initial_value else line ^ pool_mask
        if candidates:
            index = (candidates & -candidates).bit_length() - 1
            launch = list(pool.vector(index))
        else:
            # Pool-resistant line: PODEM on the complementary stuck-at
            # fault must set the line to the initial value to excite it.
            cube = podem(Fault(fault.node, fault.pin, 1 - fault.initial_value))
            if isinstance(cube, FaultStatus):
                # An undetectable complement only proves excitation or
                # propagation impossible, not which: conservatively
                # abort rather than claim undetectability.
                return FaultStatus.ABORTED
            launch = fill(cube)
        return launch, fill(capture)

    return ordered_tests(
        circ, ordered_faults, config, "transition-fill", make_test,
        lambda pairs: PatternPairSet.from_vector_pairs(pairs, circ.num_inputs),
    )
