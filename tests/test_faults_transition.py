"""Tests for the transition-fault model, universe and collapsing.

The collapsing soundness property mirrors the stuck-at one: every fault
in a collapsed class must have the *identical* two-pattern detection set,
checked by exhaustive pair simulation on small circuits.
"""

import pytest

from helpers import generated_circuit

from repro.circuit import Circuit, compile_circuit
from repro.errors import FaultModelError
from repro.faults import (
    STEM,
    Fault,
    SLOW_TO_FALL,
    SLOW_TO_RISE,
    TransitionFault,
    check_transition_fault,
    collapse_transition_faults,
    full_universe,
    transition_fault_list,
    transition_universe,
)
from repro.fsim.backend import create_backend
from repro.sim.patterns import PatternPairSet, PatternSet


def exhaustive_pairs(num_inputs: int) -> PatternPairSet:
    """Every (v1, v2) combination for circuits of <= 5 inputs."""
    single = PatternSet.exhaustive(num_inputs)
    n = single.num_patterns
    launch = single.select([p // n for p in range(n * n)])
    capture = single.select([p % n for p in range(n * n)])
    return PatternPairSet(launch, capture)


def transition_detection(circ, pairs, fault):
    engine = create_backend(circ, "bigint")
    engine.load_pairs(pairs)
    return engine.transition_detection_words([fault])[0]


class TestModel:
    def test_validation(self):
        with pytest.raises(FaultModelError, match="rise"):
            TransitionFault(0, STEM, 2)
        with pytest.raises(FaultModelError, match="pin"):
            TransitionFault(0, -2, SLOW_TO_RISE)

    def test_initial_value_and_stuck_at(self):
        str_fault = TransitionFault(3, STEM, SLOW_TO_RISE)
        stf_fault = TransitionFault(3, 1, SLOW_TO_FALL)
        assert str_fault.initial_value == 0
        assert stf_fault.initial_value == 1
        assert str_fault.as_stuck_at() == Fault(3, STEM, 0)
        assert stf_fault.as_stuck_at() == Fault(3, 1, 1)

    def test_stuck_at_round_trip(self, c17_circuit):
        """``as_stuck_at`` maps the transition universe one-to-one onto
        the stuck-at universe: slow-to-v is stuck-at-(not v)."""
        universe = transition_universe(c17_circuit)
        stuck = [f.as_stuck_at() for f in universe]
        assert sorted(stuck) == full_universe(c17_circuit)
        for fault, as_stuck in zip(universe, stuck):
            assert TransitionFault(as_stuck.node, as_stuck.pin,
                                   1 - as_stuck.value) == fault

    def test_describe(self, c17_circuit):
        stem = TransitionFault(c17_circuit.num_inputs, STEM, SLOW_TO_RISE)
        assert "slow-to-rise" in stem.describe(c17_circuit)
        branchy = [
            f for f in transition_universe(c17_circuit) if f.is_branch
        ]
        assert branchy
        assert "slow-to-fall" in [
            f for f in branchy if not f.rise
        ][0].describe(c17_circuit)

    def test_check_rejects_stuck_at(self, c17_circuit):
        with pytest.raises(FaultModelError, match="TransitionFault"):
            check_transition_fault(c17_circuit, Fault(0, STEM, 0))

    def test_check_rejects_bad_site(self, c17_circuit):
        with pytest.raises(FaultModelError):
            check_transition_fault(
                c17_circuit,
                TransitionFault(c17_circuit.num_nodes, STEM, SLOW_TO_RISE),
            )


class TestUniverse:
    def test_same_sites_as_stuck_at(self, small_circuit):
        stuck_sites = {f.site() for f in full_universe(small_circuit)}
        transition_sites = {
            f.site() for f in transition_universe(small_circuit)
        }
        assert stuck_sites == transition_sites

    def test_pairs_with_stuck_at_universe(self, small_circuit):
        """Both universes walk the same lines in the same order, the
        transition value ``rise`` in the stuck-at value's place."""
        assert transition_universe(small_circuit) == [
            TransitionFault(f.node, f.pin, f.value)
            for f in full_universe(small_circuit)
        ]

    def test_two_faults_per_line(self, small_circuit):
        universe = transition_universe(small_circuit)
        assert len(universe) == len(full_universe(small_circuit))
        assert len(universe) == 2 * len({f.site() for f in universe})

    def test_deterministic_order(self, c17_circuit):
        assert (transition_universe(c17_circuit)
                == transition_universe(c17_circuit))


class TestCollapseSemantics:
    def test_classes_semantically_equivalent(self, small_circuit):
        if small_circuit.num_inputs > 5:
            return  # exhaustive pair check too wide
        pairs = exhaustive_pairs(small_circuit.num_inputs)
        engine = create_backend(small_circuit, "bigint")
        engine.load_pairs(pairs)
        collapsed = collapse_transition_faults(small_circuit)
        for rep in collapsed.representatives:
            members = collapsed.members(rep)
            words = engine.transition_detection_words([rep, *members])
            for member, word in zip(members, words[1:]):
                assert word == words[0], (
                    f"{member.describe(small_circuit)} !~ "
                    f"{rep.describe(small_circuit)}"
                )

    def test_classes_equivalent_on_generated(self):
        for seed in (11, 23):
            circ = generated_circuit(seed, num_inputs=5, num_gates=18,
                                     num_outputs=3)
            pairs = exhaustive_pairs(circ.num_inputs)
            engine = create_backend(circ, "bigint")
            engine.load_pairs(pairs)
            collapsed = collapse_transition_faults(circ)
            for rep in collapsed.representatives:
                words = engine.transition_detection_words(
                    [rep, *collapsed.members(rep)])
                assert words == [words[0]] * len(words)


class TestCollapseStructure:
    def test_buffer_and_inverter_chains_merge(self):
        circuit = Circuit(name="chain")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g1", "AND", ["a", "b"])
        circuit.add_gate("g2", "BUF", ["g1"])
        circuit.add_gate("g3", "NOT", ["g2"])
        circuit.add_output("g3")
        circ = compile_circuit(circuit)
        names = {circ.names[i]: i for i in range(circ.num_nodes)}
        collapsed = collapse_transition_faults(circ)
        g1_rise = TransitionFault(names["g1"], STEM, SLOW_TO_RISE)
        g2_rise = TransitionFault(names["g2"], STEM, SLOW_TO_RISE)
        g3_fall = TransitionFault(names["g3"], STEM, SLOW_TO_FALL)
        assert (collapsed.representative_of(g1_rise)
                == collapsed.representative_of(g2_rise)
                == collapsed.representative_of(g3_fall))
        # AND input/output is only a dominance: never merged.
        a_rise = TransitionFault(names["a"], STEM, SLOW_TO_RISE)
        assert (collapsed.representative_of(a_rise)
                != collapsed.representative_of(g1_rise))

    def test_collapses_less_than_stuck_at(self, c17_circuit):
        # c17 is all NAND: stuck-at collapsing merges input/output faults,
        # transition collapsing must not.
        from repro.faults import collapse_faults

        stuck = collapse_faults(c17_circuit)
        transition = collapse_transition_faults(c17_circuit)
        assert transition.num_classes > stuck.num_classes
        assert transition.num_classes == len(transition.universe)

    def test_representatives_cover_universe(self, small_circuit):
        collapsed = collapse_transition_faults(small_circuit)
        assert set(collapsed.class_index) == set(collapsed.universe)
        for fault in collapsed.universe:
            assert collapsed.representative_of(fault) in collapsed.representatives

    def test_fault_list_matches_representatives(self, c17_circuit):
        assert transition_fault_list(c17_circuit) == list(
            collapse_transition_faults(c17_circuit).representatives
        )
