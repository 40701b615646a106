"""Tests for static and dynamic fault orders (paper Section 3)."""

import numpy as np
import pytest

from repro.adi import (
    ORDERS,
    AdiMode,
    compute_adi,
    dynamic_prefix,
    f0decr,
    f0dynm,
    fdecr,
    fdynm,
    fincr0,
    forig,
    select_u,
)
from repro.adi.index import AdiResult, adi_from_detection_matrix
from repro.faults import collapsed_fault_list
from repro.sim import PatternSet
from repro.utils.detmatrix import DetectionMatrix

from helpers import generated_circuit


@pytest.fixture(scope="module")
def lion_data():
    from repro.circuit import lion_like

    circ = lion_like()
    faults = collapsed_fault_list(circ)
    adi = compute_adi(circ, faults, PatternSet.exhaustive(4))
    return circ, faults, adi


@pytest.fixture(scope="module")
def zero_adi_data():
    """A circuit where U misses some faults, so zero-ADI faults exist."""
    circ = generated_circuit(21, num_inputs=8, num_gates=40, num_outputs=4,
                             hardness=0.15)
    faults = collapsed_fault_list(circ)
    selection = select_u(circ, faults, seed=1, max_vectors=48,
                         target_coverage=1.0)
    adi = compute_adi(circ, faults, selection.patterns)
    assert adi.undetected_indices, "fixture needs zero-ADI faults"
    return circ, faults, adi


class TestStaticOrders:
    def test_all_orders_are_permutations(self, zero_adi_data):
        __, faults, adi = zero_adi_data
        for name, order_fn in ORDERS.items():
            order = order_fn(adi)
            assert sorted(order) == list(range(len(faults))), name

    def test_forig_is_identity(self, lion_data):
        __, faults, adi = lion_data
        assert forig(adi) == list(range(len(faults)))

    def test_fdecr_nonincreasing(self, zero_adi_data):
        __, __, adi = zero_adi_data
        values = [int(adi.adi[i]) for i in fdecr(adi)]
        assert values == sorted(values, reverse=True)

    def test_fdecr_zeros_last(self, zero_adi_data):
        __, __, adi = zero_adi_data
        order = fdecr(adi)
        num_zero = len(adi.undetected_indices)
        assert all(adi.adi[i] == 0 for i in order[-num_zero:])
        assert all(adi.adi[i] > 0 for i in order[:-num_zero])

    def test_f0decr_zeros_first_then_decreasing(self, zero_adi_data):
        __, __, adi = zero_adi_data
        order = f0decr(adi)
        num_zero = len(adi.undetected_indices)
        assert all(adi.adi[i] == 0 for i in order[:num_zero])
        rest = [int(adi.adi[i]) for i in order[num_zero:]]
        assert rest == sorted(rest, reverse=True)

    def test_fincr0_increasing_with_zeros_last(self, zero_adi_data):
        __, __, adi = zero_adi_data
        order = fincr0(adi)
        num_zero = len(adi.undetected_indices)
        head = [int(adi.adi[i]) for i in order[:-num_zero]]
        assert head == sorted(head)
        assert all(adi.adi[i] == 0 for i in order[-num_zero:])

    def test_ties_broken_by_original_position(self, lion_data):
        __, __, adi = lion_data
        order = fdecr(adi)
        for a, b in zip(order, order[1:]):
            if adi.adi[a] == adi.adi[b]:
                assert a < b

    @pytest.mark.parametrize("seed", range(6))
    def test_match_sorted_definitions_on_random_adi(self, seed):
        """The sorts equal the orders' definitions as ``sorted`` keys, on
        ADI arrays with many ties and zeros, and hold Python ints."""
        rng = np.random.default_rng(seed)
        num_faults = int(rng.integers(1, 400))
        adi = rng.integers(0, int(rng.integers(1, 12)), num_faults)
        adi[rng.random(num_faults) < 0.3] = 0
        result = AdiResult(faults=tuple(range(num_faults)), num_vectors=0,
                           matrix=DetectionMatrix.zeros(num_faults, 0),
                           ndet=np.zeros(0, dtype=np.int64),
                           adi=adi.astype(np.int64), mode=AdiMode.MINIMUM)
        indices = range(num_faults)
        zeros = [i for i in indices if adi[i] == 0]
        detected = [i for i in indices if adi[i] != 0]
        expected = {
            fdecr: sorted(indices, key=lambda i: (-int(adi[i]), i)),
            f0decr: zeros + sorted(detected,
                                   key=lambda i: (-int(adi[i]), i)),
            fincr0: sorted(detected, key=lambda i: (int(adi[i]), i))
            + zeros,
        }
        for order_fn, want in expected.items():
            order = order_fn(result)
            assert order == want, order_fn.__name__
            assert all(type(i) is int for i in order), order_fn.__name__


def _current_adi(adi, ndet, vecs):
    """A fault's ADI against the current counts, in the result's mode."""
    if adi.mode == AdiMode.AVERAGE:
        return int(ndet[vecs].mean())
    return int(ndet[vecs].min())


def _random_result(num_patterns, mode, seed):
    """An ADI result over random packed detection rows, no circuit.

    Half the faults draw only from a few shared patterns, so they tie at
    the top and ride the plateau down; the rest are random rows, with
    some empty rows and some duplicates of earlier rows mixed in.
    """
    rng = np.random.default_rng(seed)
    num_faults = int(rng.integers(20, 60))
    shared = rng.choice(num_patterns, size=min(num_patterns, 3),
                        replace=False).tolist()
    rows = []
    for __ in range(num_faults):
        kind = rng.random()
        if kind < 0.1:
            row = 0
        elif kind < 0.2 and rows:
            row = rows[int(rng.integers(len(rows)))]
        elif kind < 0.6:
            picks = rng.choice(shared, size=int(rng.integers(1, 3)))
            row = sum(1 << int(u) for u in set(picks.tolist()))
        else:
            density = rng.choice([0.02, 0.1, 0.4])
            bits = np.flatnonzero(rng.random(num_patterns) < density)
            row = sum(1 << int(u) for u in bits.tolist())
        rows.append(row)
    matrix = DetectionMatrix.from_bigints(rows, num_patterns)
    return adi_from_detection_matrix(list(range(num_faults)), matrix, mode)


RANDOM_CASES = [
    pytest.param(width, mode, seed, id=f"P{width}-{mode.value}-{seed}")
    for width in (1, 63, 64, 65, 129)
    for mode in (AdiMode.MINIMUM, AdiMode.AVERAGE)
    for seed in range(4)
]


def _large_result(num_faults, num_patterns, mode, seed, tops):
    """An ADI result over ``num_faults`` random rows, most of which hold
    each of a few hot patterns, so their counts start near
    ``num_faults`` and fall to 0 as the faults are placed.

    A share ``tops`` of the rows hold hot patterns only and tie at the
    top.  The others add one to three cold patterns, so their ADI is
    low while the hot counts are still high; a few rows are empty or
    repeat an earlier row.
    """
    rng = np.random.default_rng(seed)
    hot = rng.choice(num_patterns, size=min(num_patterns, 3),
                     replace=False).tolist()
    cold = [u for u in range(num_patterns) if u not in hot]
    rows = []
    for __ in range(num_faults):
        kind = rng.random()
        if kind < 0.03:
            rows.append(0)
            continue
        if kind < 0.06 and rows:
            rows.append(rows[int(rng.integers(len(rows)))])
            continue
        row = sum(1 << u for u in hot if rng.random() < 0.97)
        if cold and rng.random() >= tops:
            picks = rng.choice(cold, size=int(rng.integers(1, 4)))
            row |= sum(1 << int(u) for u in picks.tolist())
        rows.append(row)
    matrix = DetectionMatrix.from_bigints(rows, num_patterns)
    return adi_from_detection_matrix(list(range(num_faults)), matrix, mode)


LARGE_CASES = [
    pytest.param(faults, width, mode, tops,
                 id=f"F{faults}-P{width}-{mode.value}-tops{tops}")
    for faults in (100, 300)
    for width in (1, 65, 129)
    for mode in (AdiMode.MINIMUM, AdiMode.AVERAGE)
    for tops in (0.0, 0.3)
]


class TestDynamicOrders:
    def _reference_dynamic(self, adi):
        """Brute-force reimplementation of the paper's dynamic procedure."""
        ndet = adi.ndet.astype(np.int64).copy()
        d_sets = [adi.matrix.row_indices(i) for i in range(len(adi.faults))]
        remaining = [i for i in range(len(adi.faults)) if adi.adi[i] > 0]
        placed = []
        while remaining:
            best, best_value = None, -1
            for i in remaining:
                value = _current_adi(adi, ndet, d_sets[i])
                if value > best_value:
                    best, best_value = i, value
            placed.append(best)
            remaining.remove(best)
            ndet[d_sets[best]] -= 1
        return placed

    def test_fdynm_matches_reference(self, lion_data):
        __, __, adi = lion_data
        zeros = adi.undetected_indices
        assert fdynm(adi) == self._reference_dynamic(adi) + zeros

    def test_fdynm_matches_reference_with_zeros(self, zero_adi_data):
        __, __, adi = zero_adi_data
        expected = self._reference_dynamic(adi) + adi.undetected_indices
        assert fdynm(adi) == expected

    def test_f0dynm_is_fdynm_rotated(self, zero_adi_data):
        __, __, adi = zero_adi_data
        zeros = adi.undetected_indices
        dynamic_part = fdynm(adi)[: len(adi.faults) - len(zeros)]
        assert f0dynm(adi) == zeros + dynamic_part

    def test_first_pick_has_globally_maximal_adi(self, lion_data):
        __, __, adi = lion_data
        first = fdynm(adi)[0]
        assert adi.adi[first] == adi.adi.max()

    def test_dynamic_prefix_walkthrough(self, lion_data):
        """Mirrors the paper's Section 3 construction: values at placement
        are non-increasing and start at the global maximum."""
        __, __, adi = lion_data
        prefix = dynamic_prefix(adi, 5)
        values = [v for _, v in prefix]
        assert values[0] == int(adi.adi.max())
        assert all(a >= b for a, b in zip(values, values[1:]))
        order = fdynm(adi)
        assert [i for i, _ in prefix] == order[:5]

    def _reference_prefix(self, adi, count):
        """The pre-heap O(count x F) rescan implementation (extended to
        AVERAGE mode)."""
        ndet = adi.ndet.astype(np.int64).copy()
        d_sets = [adi.matrix.row_indices(i) for i in range(len(adi.faults))]
        nonzero = {i for i in range(len(adi.faults)) if adi.adi[i] != 0}
        placements = []
        while nonzero and len(placements) < count:
            best, best_value = None, -1
            for i in sorted(nonzero):
                vecs = d_sets[i]
                value = _current_adi(adi, ndet, vecs) if vecs.size else 0
                if value > best_value:
                    best, best_value = i, value
            placements.append((best, best_value))
            nonzero.discard(best)
            vecs = d_sets[best]
            if vecs.size:
                ndet[vecs] -= 1
        return placements

    def test_dynamic_prefix_matches_linear_rescan_on_lion(self, lion_data):
        """The lazy-heap prefix places exactly what the paper's Section 3
        linear walk-through does, for every prefix length on ``lion``."""
        __, faults, adi = lion_data
        for count in (1, 3, 5, len(faults)):
            assert dynamic_prefix(adi, count) == \
                self._reference_prefix(adi, count)

    def test_dynamic_prefix_matches_linear_rescan_with_zeros(
            self, zero_adi_data):
        __, __, adi = zero_adi_data
        assert dynamic_prefix(adi, 10) == self._reference_prefix(adi, 10)

    def test_dynamic_prefix_honours_average_mode(self, lion_data):
        """An AVERAGE-mode result yields mean-based placements, matching
        fdynm (the historical rescan always used the minimum)."""
        from repro.adi import AdiMode

        circ, faults, __ = lion_data
        avg = compute_adi(circ, faults, PatternSet.exhaustive(4),
                          mode=AdiMode.AVERAGE)
        prefix = dynamic_prefix(avg, 5)
        assert [i for i, __ in prefix] == fdynm(avg)[:5]

    def test_dynamic_prefix_full_length_equals_fdynm(self, zero_adi_data):
        __, __, adi = zero_adi_data
        nonzero = sum(1 for i in range(len(adi.faults)) if adi.adi[i] != 0)
        prefix = dynamic_prefix(adi, len(adi.faults) + 5)
        assert len(prefix) == nonzero
        assert [i for i, __ in prefix] == fdynm(adi)[:nonzero]

    def test_dynamic_differs_from_static_sometimes(self, zero_adi_data):
        """The dynamic update must actually change something relative to
        the static sort on a circuit with overlapping detection sets."""
        __, __, adi = zero_adi_data
        assert fdynm(adi) != fdecr(adi)

    @pytest.mark.parametrize("width, mode, seed", RANDOM_CASES)
    def test_random_matrices_match_references(self, width, mode, seed,
                                              monkeypatch):
        """Every entry point against the brute-force references on random
        packed rows, with the cached sequence filled by either caller.
        The minimum-mode sweep reads the matrix as big-ints only, never
        as per-fault index lists."""
        if mode == AdiMode.MINIMUM:
            def refuse(matrix):
                raise AssertionError("row_index_lists called")
            monkeypatch.setattr(DetectionMatrix, "row_index_lists", refuse)
        probe = _random_result(width, mode, seed)
        zeros = probe.undetected_indices
        placed = self._reference_dynamic(probe)
        nonzero = len(placed)
        counts = (0, 1, 7, nonzero, nonzero + 5)
        prefixes = {c: self._reference_prefix(probe, c) for c in counts}
        assert [i for i, __ in prefixes[nonzero]] == placed

        def check_fdynm(adi):
            order = fdynm(adi)
            assert order == placed + zeros
            order.reverse()
            assert fdynm(adi) == placed + zeros

        def check_f0dynm(adi):
            order = f0dynm(adi)
            assert order == zeros + fdynm(adi)[:nonzero]
            assert order == zeros + placed
            order.clear()
            assert f0dynm(adi) == zeros + placed

        def check_prefixes(adi):
            for count in counts:
                prefix = dynamic_prefix(adi, count)
                assert prefix == prefixes[count], count
                prefix.append((-1, -1))
                assert dynamic_prefix(adi, count) == prefixes[count], count

        checks = (check_fdynm, check_f0dynm, check_prefixes)
        for sequence in (checks, checks[::-1]):
            adi = _random_result(width, mode, seed)
            for check in sequence:
                check(adi)

    @pytest.mark.parametrize("num_faults, width, mode, tops", LARGE_CASES)
    def test_large_random_matrices_match_reference(self, num_faults, width,
                                                   mode, tops):
        """Position sets several words wide, and counts high enough that
        the sweep's decrements borrow through many bit planes: at 300
        faults a hot pattern's count falls from above 256 to 0, at times
        while the plateau is low."""
        probe = _large_result(num_faults, width, mode, num_faults, tops)
        assert probe.ndet.max() > (256 if num_faults == 300 else 64)
        placed = self._reference_dynamic(probe)
        zeros = probe.undetected_indices
        assert fdynm(probe) == placed + zeros
        assert f0dynm(probe) == zeros + placed
        assert [i for i, __ in dynamic_prefix(probe, len(placed))] == placed
