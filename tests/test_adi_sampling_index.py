"""Tests for U selection and the ADI computation (paper Section 2)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adi import (
    AdiMode,
    compute_adi,
    coverage_curve,
    ndet_table,
    select_u,
)
from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.faults.registry import fault_model
from repro.sim import PatternSet
from repro.telemetry import tracing
from repro.utils.bitvec import bit_indices, popcount
from repro.utils.detmatrix import DetectionMatrix

from helpers import first_by_position, generated_circuit, naive_drop

#: Candidate-pool sizes on both sides of the 64-bit word boundaries.
POOL_WIDTHS = (1, 63, 64, 65, 127, 128, 129, 1000)


class TestSelectU:
    def test_stops_at_target_coverage(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        selection = select_u(lion_circuit, faults, seed=3,
                             max_vectors=2000, target_coverage=0.9)
        assert selection.coverage >= 0.9
        # Dropping one vector must fall below target (minimality).
        shorter = coverage_curve(
            lion_circuit, faults,
            selection.patterns.take(selection.num_vectors - 1),
        )
        assert shorter[-1] / len(faults) < 0.9

    def test_keeps_all_when_target_unreachable(self, redundant_circuit):
        faults = collapsed_fault_list(redundant_circuit)
        selection = select_u(redundant_circuit, faults, seed=3,
                             max_vectors=64, target_coverage=1.0)
        # Undetectable faults exist, so 100% is unreachable.
        assert selection.num_vectors == 64
        assert selection.coverage < 1.0

    @pytest.mark.parametrize("prune", (False, True))
    def test_first_detection_matches_naive_drop(self, lion_circuit, prune):
        """First detections are one-vector-at-a-time dropping's, cut at
        ``N``, and index the kept vectors after pruning."""
        faults = collapsed_fault_list(lion_circuit)
        pool = PatternSet.random(lion_circuit.num_inputs, 500, seed=5)
        selection = select_u(lion_circuit, faults, patterns=pool,
                             prune_useless=prune)
        full, __ = naive_drop(lion_circuit, faults, pool)
        __, count = naive_drop(lion_circuit, faults, pool,
                               stop_fraction=0.9)
        first = {f: vec for f, vec in full.items() if vec < count}
        kept = sorted(set(first.values())) if prune else list(range(count))
        assert selection.patterns == pool.select(kept)
        assert selection.first_detection == first_by_position(
            faults, {f: kept.index(vec) for f, vec in first.items()})

    def test_explicit_pattern_pool(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        pool = PatternSet.exhaustive(4)
        selection = select_u(lion_circuit, faults, patterns=pool,
                             target_coverage=1.0)
        assert selection.coverage == 1.0
        assert len(selection.first_detection) == len(faults)
        assert min(selection.first_detection) >= 0

    def test_pool_width_checked(self, lion_circuit):
        with pytest.raises(SimulationError):
            select_u(lion_circuit, [], patterns=PatternSet.exhaustive(3))

    def test_bad_target_rejected(self, lion_circuit):
        with pytest.raises(SimulationError):
            select_u(lion_circuit, [], target_coverage=0.0)

    def test_prune_useless_preserves_fu(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        plain = select_u(lion_circuit, faults, seed=7, max_vectors=300,
                         target_coverage=0.95)
        pruned = select_u(lion_circuit, faults, seed=7, max_vectors=300,
                          target_coverage=0.95, prune_useless=True)
        assert ([vec >= 0 for vec in pruned.first_detection]
                == [vec >= 0 for vec in plain.first_detection])
        assert pruned.num_vectors <= plain.num_vectors
        # Every kept vector detects something first.
        detections = set(pruned.first_detection) - {-1}
        assert detections == set(range(pruned.num_vectors))

    def test_deterministic(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        a = select_u(lion_circuit, faults, seed=11)
        b = select_u(lion_circuit, faults, seed=11)
        assert a.patterns.words == b.patterns.words

    def test_no_faults_selects_nothing(self, lion_circuit):
        selection = select_u(lion_circuit, [], patterns=PatternSet.exhaustive(4))
        assert selection.num_vectors == 0
        assert selection.coverage == 1.0
        assert selection.matrix == DetectionMatrix.zeros(0, 0)

    def test_chunk_size_validated(self, lion_circuit):
        with pytest.raises(SimulationError):
            select_u(lion_circuit, collapsed_fault_list(lion_circuit),
                     chunk_size=0)


class TestStopAtTarget:
    """The stop the dropping run used to make: ``U`` ends at the exact
    vector whose first detections reach the target coverage."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 200), chunk=st.integers(1, 70),
           frac=st.sampled_from([0.5, 0.9, 1.0]))
    def test_chunking_invariance_and_stop(self, seed, chunk, frac):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(6, 50, seed=seed + 1)
        selection = select_u(circ, faults, patterns=patterns,
                             chunk_size=chunk, target_coverage=frac)
        expected, consumed = naive_drop(circ, faults, patterns,
                                        stop_fraction=frac)
        assert selection.first_detection == first_by_position(faults,
                                                              expected)
        assert selection.num_vectors == consumed

    def test_target_validated(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        with pytest.raises(SimulationError):
            select_u(c17_circuit, faults, patterns=PatternSet.exhaustive(5),
                     target_coverage=1.5)

    def test_stop_at_exact_vector(self, c17_circuit):
        # With a tiny target, the first detecting vector ends U.
        faults = collapsed_fault_list(c17_circuit)
        selection = select_u(c17_circuit, faults,
                             patterns=PatternSet.exhaustive(5),
                             target_coverage=0.01)
        assert selection.num_vectors >= 1
        detected = [vec for vec in selection.first_detection if vec >= 0]
        assert min(detected) == selection.num_vectors - 1

    def test_stop_target_is_smallest_count_reaching_fraction(self):
        # 100 * 0.55 is just above 55 in floating point, yet 55 of 100
        # detections already reach 55% coverage: U must end at the
        # vector of the 55th first detection, which here comes before
        # the vector of the 56th.
        circ = generated_circuit(2, num_inputs=8, num_gates=60,
                                 num_outputs=5)
        faults = collapsed_fault_list(circ)[:100]
        patterns = PatternSet.random(circ.num_inputs, 40, seed=2)
        full, __ = naive_drop(circ, faults, patterns)
        firsts = sorted(full.values())
        assert firsts[54] < firsts[55]

        selection = select_u(circ, faults, patterns=patterns, chunk_size=8,
                             target_coverage=0.55)
        expected, consumed = naive_drop(circ, faults, patterns,
                                        stop_fraction=0.55)
        assert selection.num_vectors == consumed == firsts[54] + 1
        assert selection.first_detection == first_by_position(faults,
                                                              expected)
        assert selection.coverage >= 0.55


class TestWalkAgainstNaiveDrop:
    """The no-dropping block walk selects what one-vector-at-a-time
    dropping selects, and its rows are the ADI stage's matrix."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 100), pool=st.sampled_from(POOL_WIDTHS),
           coverage=st.floats(0.05, 1.0), chunk=st.integers(1, 100),
           prune=st.booleans(), engine=st.sampled_from(("bigint", "numpy")),
           model=st.sampled_from(("stuck_at", "transition")))
    def test_matches_one_vector_at_a_time(self, seed, pool, coverage, chunk,
                                          prune, engine, model):
        circ = generated_circuit(seed, num_inputs=6, num_gates=24,
                                 num_outputs=3, hardness=0.3)
        fmodel = fault_model(model)
        faults = fmodel.target_faults(circ)
        candidates = fmodel.random_pool(circ.num_inputs, pool, seed + 1)
        selection = select_u(circ, faults, patterns=candidates,
                             target_coverage=coverage, chunk_size=chunk,
                             prune_useless=prune, backend=engine)

        first, consumed = naive_drop(circ, faults, candidates,
                                     stop_fraction=coverage)
        expected = candidates.take(consumed)
        if prune:
            useful = sorted(set(first.values()))
            expected = expected.select(useful)
            first = {f: useful.index(vec) for f, vec in first.items()}
        assert selection.num_vectors == expected.num_patterns
        assert selection.patterns == expected
        assert selection.first_detection == first_by_position(faults, first)
        assert selection.candidates_drawn == pool

        own = compute_adi(circ, faults, selection.patterns, backend=engine)
        assert selection.matrix == own.matrix


class TestComputeAdi:
    @pytest.fixture
    def lion_adi(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        return faults, compute_adi(
            lion_circuit, faults, PatternSet.exhaustive(4)
        )

    def test_ndet_is_column_sum(self, lion_adi):
        faults, result = lion_adi
        for u in range(16):
            expected = sum(
                (mask >> u) & 1 for mask in result.matrix.to_bigints()
            )
            assert result.ndet[u] == expected

    def test_adi_definition_minimum(self, lion_adi):
        """ADI(f) = min over D(f) of ndet(u) — the paper's equation."""
        faults, result = lion_adi
        for i, mask in enumerate(result.matrix.to_bigints()):
            if mask:
                expected = min(result.ndet[u] for u in bit_indices(mask))
                assert result.adi[i] == expected
            else:
                assert result.adi[i] == 0

    def test_adi_at_least_one_for_detected(self, lion_adi):
        """Paper: ADI(f) >= 1 for f in FU (f counts itself)."""
        faults, result = lion_adi
        for i in result.detected_indices:
            assert result.adi[i] >= 1

    def test_lion_has_no_zero_adi(self, lion_adi):
        faults, result = lion_adi
        assert result.undetected_indices == []
        assert len(result.detected_indices) == 40

    def test_min_max_and_ratio(self, lion_adi):
        faults, result = lion_adi
        lo, hi = result.adi_min_max()
        assert 1 <= lo <= hi
        assert result.adi_ratio() == pytest.approx(hi / lo)

    def test_average_mode_at_least_minimum(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        patterns = PatternSet.exhaustive(4)
        mn = compute_adi(lion_circuit, faults, patterns, mode=AdiMode.MINIMUM)
        avg = compute_adi(lion_circuit, faults, patterns, mode=AdiMode.AVERAGE)
        assert np.all(avg.adi >= mn.adi)

    def test_row_indices_match_rows(self, lion_adi):
        faults, result = lion_adi
        for i, mask in enumerate(result.matrix.to_bigints()):
            vecs = result.matrix.row_indices(i)
            assert list(vecs) == bit_indices(mask)
            assert len(vecs) == popcount(mask)

    def test_ndet_table_export(self, lion_adi):
        faults, result = lion_adi
        table = ndet_table(result)
        assert len(table) == 16
        assert table[0] == int(result.ndet[0])

    def test_empty_u_gives_all_zero(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        empty = PatternSet.from_vectors([], num_inputs=4)
        result = compute_adi(lion_circuit, faults, empty)
        assert result.adi_min_max() == (0, 0)
        assert result.adi_ratio() == 0.0

    def test_pattern_width_checked(self, lion_circuit):
        with pytest.raises(SimulationError):
            compute_adi(lion_circuit, [], PatternSet.exhaustive(3))

    def test_handed_matrix_replaces_the_query(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        patterns = PatternSet.exhaustive(4)
        queried = compute_adi(lion_circuit, faults, patterns)
        with tracing() as collector:
            handed = compute_adi(lion_circuit, faults, patterns,
                                 matrix=queried.matrix)
        assert [node["name"] for __, node in collector.walk()] == []
        assert handed.matrix is queried.matrix
        assert (handed.adi == queried.adi).all()
        assert (handed.ndet == queried.ndet).all()

    def test_handed_matrix_shape_checked(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        patterns = PatternSet.exhaustive(4)
        matrix = compute_adi(lion_circuit, faults, patterns).matrix
        for bad in (matrix.select_rows(range(len(faults) - 1)),
                    DetectionMatrix.zeros(len(faults) + 1, 16),
                    matrix.take_patterns(15),
                    DetectionMatrix.concat_patterns(
                        [matrix, matrix.take_patterns(1)], len(faults))):
            with pytest.raises(SimulationError, match="detection matrix"):
                compute_adi(lion_circuit, faults, patterns, matrix=bad)
