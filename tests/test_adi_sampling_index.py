"""Tests for U selection and the ADI computation (paper Section 2)."""

import numpy as np
import pytest

from repro.adi import AdiMode, compute_adi, ndet_table, select_u
from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.fsim import drop_simulate
from repro.sim import PatternSet
from repro.utils.bitvec import bit_indices, popcount


class TestSelectU:
    def test_stops_at_target_coverage(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        selection = select_u(lion_circuit, faults, seed=3,
                             max_vectors=2000, target_coverage=0.9)
        assert selection.coverage >= 0.9
        # Dropping one vector must fall below target (minimality).
        shorter = drop_simulate(
            lion_circuit, faults,
            selection.patterns.take(selection.num_vectors - 1),
        )
        assert shorter.coverage < 0.9

    def test_keeps_all_when_target_unreachable(self, redundant_circuit):
        faults = collapsed_fault_list(redundant_circuit)
        selection = select_u(redundant_circuit, faults, seed=3,
                             max_vectors=64, target_coverage=1.0)
        # Undetectable faults exist, so 100% is unreachable.
        assert selection.num_vectors == 64
        assert selection.coverage < 1.0

    def test_fu_matches_dropping_sim(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        selection = select_u(lion_circuit, faults, seed=5, max_vectors=500)
        detected = set(selection.detected_by_u)
        for fault in faults:
            if fault in detected:
                assert fault in selection.dropped_sim.first_detection
            else:
                assert fault not in selection.dropped_sim.first_detection

    def test_explicit_pattern_pool(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        pool = PatternSet.exhaustive(4)
        selection = select_u(lion_circuit, faults, patterns=pool,
                             target_coverage=1.0)
        assert selection.coverage == 1.0
        assert len(selection.detected_by_u) == len(faults)

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
        assert set(pruned.detected_by_u) == set(plain.detected_by_u)
        assert pruned.num_vectors <= plain.num_vectors
        # Every kept vector detects something first.
        detections = set(pruned.dropped_sim.first_detection.values())
        assert detections == set(range(pruned.num_vectors))

    def test_deterministic(self, lion_circuit):
        faults = collapsed_fault_list(lion_circuit)
        a = select_u(lion_circuit, faults, seed=11)
        b = select_u(lion_circuit, faults, seed=11)
        assert a.patterns.words == b.patterns.words


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

    def test_adi_of_lookup(self, lion_adi):
        faults, result = lion_adi
        assert result.adi_of(faults[0]) == int(result.adi[0])

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
