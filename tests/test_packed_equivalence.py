"""Packed-vs-bigint equivalence at word boundaries.

The packed ``DetectionMatrix`` fast path must be bit-identical to the
big-int word representation everywhere they meet: raw detection
matrices, ADI results, drop-simulate first-detection indices and
coverage curves — for every registered fault-simulation backend, for
both registered fault models, at block widths straddling the 64-bit
word boundaries (P in {1, 63, 64, 65, 129}).
"""

import numpy as np
import pytest

from repro.adi.dynamic import f0dynm, fdynm
from repro.adi.index import AdiMode, adi_from_detection_matrix, compute_adi
from repro.faults import collapsed_fault_list
from repro.faults.registry import query_detection_matrix
from repro.faults.transition import transition_fault_list
from repro.fsim import backend as backend_mod
from repro.fsim.backend import (
    FaultSimBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.fsim.dropping import coverage_curve, drop_simulate
from repro.fsim.serial import detection_word_serial
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.detmatrix import DetectionMatrix

from helpers import engine_words, generated_circuit

#: Block widths straddling uint64 word boundaries.
BOUNDARY_WIDTHS = (1, 63, 64, 65, 129)


@pytest.fixture(scope="module")
def circuit():
    return generated_circuit(11, num_inputs=9, num_gates=70, num_outputs=5,
                             hardness=0.3)


@pytest.fixture(scope="module")
def stuck_faults(circuit):
    return collapsed_fault_list(circuit)


@pytest.fixture(scope="module")
def transition_faults(circuit):
    return transition_fault_list(circuit)


def block_for(model_name, num_inputs, width):
    if model_name == "transition":
        return PatternPairSet.random(num_inputs, width, seed=width * 7 + 1)
    return PatternSet.random(num_inputs, width, seed=width * 7 + 1)


def faults_for(model_name, stuck_faults, transition_faults):
    return transition_faults if model_name == "transition" else stuck_faults


class TestMatrixVsWords:
    @pytest.mark.parametrize("backend_name", sorted(available_backends()))
    @pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_matrix_rows_equal_words(self, circuit, stuck_faults,
                                     transition_faults, backend_name,
                                     model_name, width):
        faults = faults_for(model_name, stuck_faults, transition_faults)
        block = block_for(model_name, circuit.num_inputs, width)
        words = engine_words(circuit, faults, block, backend_name)
        matrix = query_detection_matrix(
            create_backend(circuit, backend_name), block, faults
        )
        assert matrix.num_patterns == width
        assert matrix.num_faults == len(faults)
        assert matrix.to_bigints() == words

    @pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_matrix_identical_across_backends(self, circuit, stuck_faults,
                                              transition_faults, model_name,
                                              width):
        faults = faults_for(model_name, stuck_faults, transition_faults)
        block = block_for(model_name, circuit.num_inputs, width)
        matrices = {
            name: query_detection_matrix(
                create_backend(circuit, name), block, faults
            )
            for name in available_backends()
        }
        reference = matrices.pop(sorted(matrices)[0])
        for name, matrix in matrices.items():
            assert matrix == reference, name


class TestAdiEquivalence:
    @pytest.mark.parametrize("mode", (AdiMode.MINIMUM, AdiMode.AVERAGE))
    @pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_adi_matches_bigint_reconstruction(self, circuit, stuck_faults,
                                               transition_faults, model_name,
                                               width, mode):
        faults = faults_for(model_name, stuck_faults, transition_faults)
        block = block_for(model_name, circuit.num_inputs, width)
        packed = compute_adi(circuit, faults, block, mode=mode)
        words = engine_words(circuit, faults, block, "bigint")
        via_words = adi_from_detection_matrix(
            faults, DetectionMatrix.from_bigints(words, width), mode)
        assert packed.matrix.to_bigints() == words
        assert np.array_equal(packed.ndet, via_words.ndet)
        assert np.array_equal(packed.adi, via_words.adi)
        assert packed.detected_indices == via_words.detected_indices
        assert packed.undetected_indices == via_words.undetected_indices
        assert fdynm(packed) == fdynm(via_words)
        assert f0dynm(packed) == f0dynm(via_words)

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_adi_reference_per_fault(self, circuit, stuck_faults, width):
        """ADI against the definition, computed per fault from big-ints."""
        block = block_for("stuck_at", circuit.num_inputs, width)
        result = compute_adi(circuit, stuck_faults, block)
        words = result.matrix.to_bigints()
        ndet = [
            sum((w >> u) & 1 for w in words) for u in range(width)
        ]
        assert result.ndet.tolist() == ndet
        for i, word in enumerate(words):
            detecting = [u for u in range(width) if (word >> u) & 1]
            expected = min((ndet[u] for u in detecting), default=0)
            assert int(result.adi[i]) == expected, i


class TestDroppingEquivalence:
    @pytest.mark.parametrize("backend_name", sorted(available_backends()))
    @pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_first_detection_matches_bigint_scan(self, circuit, stuck_faults,
                                                 transition_faults,
                                                 backend_name, model_name,
                                                 width):
        faults = faults_for(model_name, stuck_faults, transition_faults)
        block = block_for(model_name, circuit.num_inputs, width)
        result = drop_simulate(circuit, faults, block, chunk_size=32,
                               backend=backend_name)
        words = engine_words(circuit, faults, block, backend_name)
        expected = {
            fault: (word & -word).bit_length() - 1
            for fault, word in zip(faults, words) if word
        }
        assert result.first_detection == expected

    @pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_coverage_curve_matches_bigint_scan(self, circuit, stuck_faults,
                                                transition_faults,
                                                model_name, width):
        faults = faults_for(model_name, stuck_faults, transition_faults)
        block = block_for(model_name, circuit.num_inputs, width)
        curve = coverage_curve(circuit, faults, block, chunk_size=16)
        words = engine_words(circuit, faults, block, "bigint")
        firsts = [
            (w & -w).bit_length() - 1 for w in words if w
        ]
        expected = [
            sum(1 for f in firsts if f <= p) for p in range(width)
        ]
        assert curve == expected

    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_stop_fraction_unchanged_by_packing(self, circuit, stuck_faults,
                                                width):
        block = block_for("stuck_at", circuit.num_inputs, width)
        stopped = drop_simulate(circuit, stuck_faults, block, chunk_size=8,
                                stop_fraction=0.5)
        full = drop_simulate(circuit, stuck_faults, block, chunk_size=8)
        # The truncated run must agree with the full run on every fault
        # it keeps, and stop exactly at the crossing vector.
        for fault, vec in stopped.first_detection.items():
            assert full.first_detection[fault] == vec
        if stopped.num_detected:
            crossing = max(stopped.first_detection.values())
            assert stopped.num_simulated == crossing + 1


class MinimalEngine(FaultSimBackend):
    """Staging plus one query: the serial oracle over the kept block."""

    name = "minimal"

    def _stage(self, patterns):
        self.patterns = patterns

    def detection_words(self, faults):
        return [detection_word_serial(self.circ, self.patterns, fault)
                for fault in faults]


class PackedMinimalEngine(FaultSimBackend):
    """Staging plus the packed query: the serial oracle, packed per query."""

    name = "minimal-packed"

    def _stage(self, patterns):
        self.patterns = patterns

    def detection_matrix(self, faults):
        return DetectionMatrix.from_bigints(
            [detection_word_serial(self.circ, self.patterns, fault)
             for fault in faults],
            self.patterns.num_patterns,
        )


def _registered(engine_cls):
    register_backend(engine_cls.name, engine_cls, replace=True)
    yield engine_cls.name
    backend_mod._REGISTRY.pop(engine_cls.name)


@pytest.fixture
def minimal_backend():
    yield from _registered(MinimalEngine)


@pytest.fixture
def packed_minimal_backend():
    yield from _registered(PackedMinimalEngine)


class TestEngineContract:
    """An engine that supplies staging and one query gets the rest."""

    @pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    def test_minimal_engine_matches_bigint(self, c17_circuit,
                                           minimal_backend, model_name,
                                           width):
        faults = faults_for(model_name, collapsed_fault_list(c17_circuit),
                            transition_fault_list(c17_circuit))
        block = block_for(model_name, c17_circuit.num_inputs, width)
        matrix = query_detection_matrix(
            create_backend(c17_circuit, minimal_backend), block, faults
        )
        reference = query_detection_matrix(
            create_backend(c17_circuit, "bigint"), block, faults
        )
        assert matrix == reference
        assert any(matrix.any_rows())

    @pytest.mark.parametrize("model_name", ("stuck_at", "transition"))
    def test_packed_only_engine_answers_word_queries(self, c17_circuit,
                                                     packed_minimal_backend,
                                                     model_name):
        faults = faults_for(model_name, collapsed_fault_list(c17_circuit),
                            transition_fault_list(c17_circuit))
        for width in BOUNDARY_WIDTHS:
            block = block_for(model_name, c17_circuit.num_inputs, width)
            assert engine_words(c17_circuit, faults, block,
                                packed_minimal_backend) == \
                engine_words(c17_circuit, faults, block, "bigint"), width

    def test_an_engine_without_a_query_is_rejected(self):
        with pytest.raises(TypeError, match="detection_words"):
            class NoQuery(FaultSimBackend):
                name = "no-query"
