"""Tests for causal-chain (backward-cone) candidate re-ranking.

Pins the structural claims: :func:`output_reach_masks` is the exact
dual of :func:`transitive_fanin` / :func:`output_cone`, and
:class:`ChainRanker.rerank` is *refinement only* — the candidate set
and every score survive, only the order among equal scores moves, with
explains-all cones first, then fewer spurious outputs, then dictionary
position.
"""

import pytest

from helpers import generated_circuit
from repro.circuit.graph import (
    output_cone,
    output_reach_masks,
    transitive_fanin,
)
from repro.diagnosis import (
    ChainRanker,
    FailLog,
    build_pass_fail_dictionary,
    diagnose,
    diagnose_batch,
    failing_outputs_mask,
    random_fail_log,
)
from repro.errors import DiagnosisInputError
from repro.faults import collapsed_fault_list
from repro.sim.patterns import PatternSet


@pytest.fixture(scope="module")
def setup():
    circ = generated_circuit(11, num_inputs=10, num_gates=60,
                             num_outputs=6)
    faults = collapsed_fault_list(circ)
    tests = PatternSet.random(circ.num_inputs, 80, seed=12)
    dictionary = build_pass_fail_dictionary(circ, faults, tests)
    return circ, dictionary


class TestOutputReachMasks:
    def test_dual_of_transitive_fanin(self, setup):
        """Bit k of node n <=> n in the backward cone of output k."""
        circ, __ = setup
        masks = output_reach_masks(circ)
        for k, out in enumerate(circ.outputs):
            cone = set(transitive_fanin(circ, [out]))
            for node in range(circ.num_nodes):
                assert bool((masks[node] >> k) & 1) == (node in cone)

    def test_matches_outputs_in_forward_cone(self, setup):
        circ, __ = setup
        masks = output_reach_masks(circ)
        positions = {out: k for k, out in enumerate(circ.outputs)}
        for node in range(0, circ.num_nodes, 3):
            expected = 0
            for out in output_cone(circ, node):
                if circ.is_output[out]:
                    expected |= 1 << positions[out]
            assert masks[node] == expected

    def test_outputs_reach_themselves(self, setup):
        circ, __ = setup
        masks = output_reach_masks(circ)
        for k, out in enumerate(circ.outputs):
            assert (masks[out] >> k) & 1


class TestFailingOutputsMask:
    def test_packs_positions(self, setup):
        circ, __ = setup
        ranker = ChainRanker(circ)
        assert failing_outputs_mask(ranker, [0, 2]) == 0b101
        assert failing_outputs_mask(3, [1]) == 0b10

    def test_out_of_range_rejected(self, setup):
        circ, __ = setup
        ranker = ChainRanker(circ)
        with pytest.raises(DiagnosisInputError):
            failing_outputs_mask(ranker, [ranker.num_outputs])
        with pytest.raises(DiagnosisInputError):
            failing_outputs_mask(ranker, [-1])


class TestChainRanker:
    def test_explains_and_spurious(self, setup):
        circ, __ = setup
        ranker = ChainRanker(circ)
        reach = output_reach_masks(circ)
        out0 = circ.outputs[0]
        assert ranker.explains(out0, 0b1)
        # The output node itself reaches exactly one output: any other
        # failing output cannot be explained, and a non-failing
        # observation through it is spurious.
        assert not ranker.explains(out0, 0b11) or \
            (reach[out0] & 0b10)
        assert ranker.spurious(out0, 0b1) == \
            bin(reach[out0] & ~0b1
                & ((1 << ranker.num_outputs) - 1)).count("1")

    def test_cone_facts_of_an_output(self, setup):
        circ, __ = setup
        ranker = ChainRanker(circ)
        node = circ.outputs[0]
        mask = failing_outputs_mask(ranker, [0])
        assert mask == 0b1
        # An output's cone reaches the output itself; every other output
        # it reaches never failed.
        assert ranker.explains(node, mask)
        assert ranker.spurious(node, mask) == \
            bin(output_reach_masks(circ)[node] & ~mask).count("1")


class TestRerank:
    def test_refinement_only(self, setup):
        """Candidate set and scores survive; score order never breaks."""
        circ, dictionary = setup
        ranker = ChainRanker(circ)
        log = random_fail_log(dictionary, 60, seed=21, circ=circ)
        for device in range(60):
            report = diagnose(dictionary, log.observed_mask(device))
            failing = [k for k in range(len(circ.outputs))
                       if (log.failing_outputs[device] >> k) & 1]
            reranked = ranker.rerank(dictionary, report, failing)
            assert sorted(map(id, (f for f, __ in report.candidates))) \
                == sorted(map(id, (f for f, __ in reranked.candidates)))
            assert [s for __, s in reranked.candidates] == \
                sorted((s for __, s in report.candidates), reverse=True)

    def test_ties_order_by_cone_evidence(self, setup):
        circ, dictionary = setup
        ranker = ChainRanker(circ)
        log = random_fail_log(dictionary, 60, seed=22, circ=circ)
        for device in range(60):
            report = diagnose(dictionary, log.observed_mask(device))
            mask = log.failing_outputs[device]
            failing = [k for k in range(len(circ.outputs))
                       if (mask >> k) & 1]
            reranked = ranker.rerank(dictionary, report, failing)
            keys = [
                ranker.sort_key(fault.node, score,
                                dictionary.position(fault), mask)
                for fault, score in reranked.candidates
            ]
            assert keys == sorted(keys)

    def test_batch_chain_matches_single_rerank(self, setup):
        circ, dictionary = setup
        ranker = ChainRanker(circ)
        log = random_fail_log(dictionary, 40, seed=23, circ=circ)
        batch = diagnose_batch(dictionary, log, chain=ranker)
        assert batch.chain_devices == 40
        for device in range(40):
            failing = [k for k in range(len(circ.outputs))
                       if (log.failing_outputs[device] >> k) & 1]
            single = ranker.rerank(
                dictionary,
                diagnose(dictionary, log.observed_mask(device)),
                failing,
            )
            assert batch.report(device).candidates == single.candidates

    @pytest.mark.parametrize("mask, message", [
        (lambda n: 1 << n, "failing output {n} out of range for a circuit "
                           "with {n} outputs"),
        (lambda n: 0b1 | 1 << (n + 3), "failing output {n3} out of range"),
        (lambda n: -1, "negative failing-outputs mask -1"),
    ], ids=["first-past-last", "far-past-last", "negative"])
    def test_batch_rejects_masks_the_circuit_cannot_have(self, setup, mask,
                                                         message):
        """A log built directly has not been through ``from_records``:
        a bit past the last output fails like ``rerank`` on the same
        position, before any device is re-ranked."""
        circ, dictionary = setup
        ranker = ChainRanker(circ)
        good = random_fail_log(dictionary, 4, seed=26, circ=circ)
        failing = list(good.failing_outputs)
        failing[2] = mask(ranker.num_outputs)
        log = FailLog(num_tests=good.num_tests,
                      device_ids=("a", "b", "c", "d"), matrix=good.matrix,
                      failing_outputs=tuple(failing))
        expected = message.format(n=ranker.num_outputs,
                                  n3=ranker.num_outputs + 3)
        with pytest.raises(DiagnosisInputError,
                           match=f"device 'c': {expected}"):
            diagnose_batch(dictionary, log, chain=ranker)
        if failing[2] > 0:
            positions = [k for k in range(failing[2].bit_length())
                         if (failing[2] >> k) & 1]
            with pytest.raises(DiagnosisInputError):
                ranker.rerank(dictionary,
                              diagnose(dictionary, log.observed_mask(2)),
                              positions)
        # Without a ranker the masks are never read.
        assert diagnose_batch(dictionary, log).chain_devices == 0

    def test_chain_without_outputs_is_noop(self, setup):
        circ, dictionary = setup
        log = random_fail_log(dictionary, 10, seed=25)  # no circ: no outputs
        batch = diagnose_batch(dictionary, log, chain=ChainRanker(circ))
        plain = diagnose_batch(dictionary, log)
        assert batch.chain_devices == 0
        for device in range(10):
            assert batch.report(device).candidates == \
                plain.report(device).candidates
