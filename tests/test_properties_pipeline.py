"""Cross-module property tests: invariants that tie the stack together.

These are the "whole-machine" properties: whatever circuit hypothesis
generates, the layered implementations must agree with first-principles
definitions computed the slow way.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adi import ORDERS, compute_adi, coverage_curve, select_u
from repro.atpg import PodemEngine, PodemStatus
from repro.faults import collapse_faults, collapsed_fault_list
from repro.fsim import detection_words
from repro.fsim.serial import detection_word_serial
from repro.sim import PatternSet, simulate
from repro.sim import npsim
from repro.utils.bitvec import bit_indices

from helpers import generated_circuit

_slow = settings(max_examples=5, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestSimulatorTriangle:
    """big-int sim == numpy sim == serial per-vector sim."""

    @_slow
    @given(seed=st.integers(0, 300), pat_seed=st.integers(0, 50))
    def test_three_way_agreement(self, seed, pat_seed):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        patterns = PatternSet.random(6, 100, seed=pat_seed)
        big = simulate(circ, patterns)
        assert big == npsim.simulate(circ, patterns)
        from repro.sim import simulate_vector

        for p in (0, 50, 99):
            vec = patterns.vector(p)
            scalar = simulate_vector(circ, vec)
            for node in range(circ.num_nodes):
                assert (big[node] >> p) & 1 == scalar[node] & 1


class TestAdiFirstPrinciples:
    """ADI computed by the library == ADI recomputed from raw detection
    words with the paper's formulas."""

    @_slow
    @given(seed=st.integers(0, 300))
    def test_adi_formula(self, seed):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(6, 40, seed=seed + 1)
        adi = compute_adi(circ, faults, patterns)

        words = detection_words(circ, faults, patterns)
        ndet = np.zeros(40, dtype=np.int64)
        for word in words:
            for u in bit_indices(word):
                ndet[u] += 1
        assert list(ndet) == list(adi.ndet)
        for i, word in enumerate(words):
            if word:
                assert adi.adi[i] == min(ndet[u] for u in bit_indices(word))
            else:
                assert adi.adi[i] == 0

    @_slow
    @given(seed=st.integers(0, 300))
    def test_orders_partition_by_adi_zero(self, seed):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        faults = collapsed_fault_list(circ)
        selection = select_u(circ, faults, seed=seed, max_vectors=24,
                             target_coverage=1.0)
        adi = compute_adi(circ, faults, selection.patterns)
        zeros = set(adi.undetected_indices)
        n = len(faults)
        for name in ("dynm", "decr"):
            order = ORDERS[name](adi)
            assert set(order[n - len(zeros):]) == zeros
        for name in ("0dynm", "0decr"):
            order = ORDERS[name](adi)
            assert set(order[: len(zeros)]) == zeros


class TestPodemSimulationAgreement:
    """PODEM SUCCESS cubes detect their fault under the fast simulator,
    and UNDETECTABLE verdicts agree with the serial oracle."""

    @_slow
    @given(seed=st.integers(0, 300))
    def test_verdicts_and_cubes(self, seed):
        circ = generated_circuit(seed, num_inputs=6, num_gates=22,
                                 num_outputs=3)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.exhaustive(6)
        engine = PodemEngine(circ)
        for fault in faults[:30]:
            truth = detection_word_serial(circ, patterns, fault) != 0
            result = engine.run(fault, backtrack_limit=None)
            assert (result.status == PodemStatus.SUCCESS) == truth


class TestUSelectionInvariants:
    @_slow
    @given(seed=st.integers(0, 300),
           target=st.sampled_from([0.5, 0.75, 0.9]))
    def test_minimality_and_coverage(self, seed, target):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        faults = collapsed_fault_list(circ)
        selection = select_u(circ, faults, seed=seed, max_vectors=256,
                             target_coverage=target)
        if selection.num_vectors < 256:
            # Stopped early: coverage target reached exactly at the last
            # vector and not one vector earlier.
            assert selection.coverage >= target
            if selection.num_vectors > 1:
                shorter = coverage_curve(
                    circ, faults,
                    selection.patterns.take(selection.num_vectors - 1),
                )
                assert shorter[-1] / len(faults) < target
        else:
            assert selection.num_vectors == 256


class TestCollapseCoverageInvariant:
    """A test set covering all representatives covers the full universe
    (the whole point of equivalence collapsing)."""

    @_slow
    @given(seed=st.integers(0, 300))
    def test_representative_coverage_extends(self, seed):
        circ = generated_circuit(seed, num_inputs=6, num_gates=20,
                                 num_outputs=3)
        collapsed = collapse_faults(circ)
        patterns = PatternSet.exhaustive(6)
        rep_words = dict(zip(
            collapsed.representatives,
            detection_words(circ, list(collapsed.representatives), patterns),
        ))
        for fault in collapsed.universe:
            rep = collapsed.representative_of(fault)
            own = detection_word_serial(circ, patterns, fault)
            assert (own != 0) == (rep_words[rep] != 0)
