"""Fault-model-polymorphic ADI: transition faults over two-pattern U."""

import numpy as np
import pytest

from repro.adi import AdiMode, ORDERS, compute_adi, f0dynm, fdynm, select_u
from repro.circuit import c17, lion_like
from repro.faults import transition_fault_list
from repro.fsim.dropping import drop_simulate
from repro.sim.patterns import PatternPairSet

from helpers import engine_words


@pytest.fixture(scope="module")
def setup():
    circ = lion_like()
    faults = transition_fault_list(circ)
    pairs = PatternPairSet.random(circ.num_inputs, 60, seed=11)
    return circ, faults, pairs


class TestComputeAdi:
    def test_masks_match_backend_words(self, setup):
        circ, faults, pairs = setup
        result = compute_adi(circ, faults, pairs)
        assert result.matrix.to_bigints() == engine_words(
            circ, faults, pairs, "bigint"
        )
        assert result.num_vectors == pairs.num_patterns

    def test_ndet_counts_pairs(self, setup):
        circ, faults, pairs = setup
        result = compute_adi(circ, faults, pairs)
        words = result.matrix.to_bigints()
        for u in range(pairs.num_patterns):
            assert result.ndet[u] == sum((w >> u) & 1 for w in words)

    def test_adi_is_min_over_detection_set(self, setup):
        circ, faults, pairs = setup
        result = compute_adi(circ, faults, pairs)
        for i, vecs in enumerate(result.matrix.row_index_lists()):
            if vecs.size:
                assert result.adi[i] == result.ndet[vecs].min()
            else:
                assert result.adi[i] == 0

    def test_average_mode(self, setup):
        circ, faults, pairs = setup
        result = compute_adi(circ, faults, pairs, mode=AdiMode.AVERAGE)
        for i, vecs in enumerate(result.matrix.row_index_lists()):
            if vecs.size:
                assert result.adi[i] == int(np.mean(result.ndet[vecs]))

    def test_backends_agree(self, setup):
        circ, faults, pairs = setup
        reference = compute_adi(circ, faults, pairs, backend="bigint")
        for backend in ("numpy", "auto"):
            other = compute_adi(circ, faults, pairs, backend=backend)
            assert (other.adi == reference.adi).all()
            assert other.matrix == reference.matrix


class TestOrders:
    def test_all_orders_are_permutations(self, setup):
        circ, faults, pairs = setup
        result = compute_adi(circ, faults, pairs)
        for name, order_fn in ORDERS.items():
            order = order_fn(result)
            assert sorted(order) == list(range(len(faults))), name

    def test_fdynm_and_f0dynm_are_permutations(self, setup):
        circ, faults, pairs = setup
        for order_fn in (fdynm, f0dynm):
            order = order_fn(compute_adi(circ, faults, pairs))
            assert sorted(order) == list(range(len(faults)))


class TestSelectU:
    def test_transition_model_builds_pair_pool(self):
        circ = c17()
        faults = transition_fault_list(circ)
        selection = select_u(circ, faults, seed=42, model="transition")
        assert isinstance(selection.patterns, PatternPairSet)
        assert selection.coverage >= 0.9
        assert selection.num_vectors <= selection.candidates_drawn

    def test_explicit_pair_pool_truncated(self):
        circ = c17()
        faults = transition_fault_list(circ)
        pool = PatternPairSet.random(circ.num_inputs, 500, seed=1)
        selection = select_u(circ, faults, patterns=pool)
        replay = drop_simulate(circ, faults, pool, stop_fraction=0.9)
        assert selection.num_vectors == replay.num_simulated
        assert set(selection.detected_by_u) == set(replay.first_detection)

    def test_prune_useless_keeps_detections(self):
        circ = lion_like()
        faults = transition_fault_list(circ)
        pruned = select_u(circ, faults, seed=7, model="transition",
                          prune_useless=True)
        plain = select_u(circ, faults, seed=7, model="transition")
        assert set(pruned.detected_by_u) == set(plain.detected_by_u)
        assert pruned.num_vectors <= plain.num_vectors


class TestDropSimulate:
    def test_first_detection_matches_words(self, setup):
        circ, faults, pairs = setup
        result = drop_simulate(circ, faults, pairs, chunk_size=16)
        words = engine_words(circ, faults, pairs, "bigint")
        for fault, word in zip(faults, words):
            if word:
                first = (word & -word).bit_length() - 1
                assert result.first_detection[fault] == first
            else:
                assert fault not in result.first_detection
