"""The fault-model registry: lookup, dispatch, extension, codecs."""

import pytest

from repro.circuit import lion_like
from repro.errors import FaultModelError
from repro.faults import (
    Fault,
    TransitionFault,
    collapsed_fault_list,
    transition_fault_list,
)
from repro.faults.registry import (
    FaultModel,
    STUCK_AT,
    TRANSITION,
    available_fault_models,
    fault_model,
    model_for_block,
    query_detection_matrix,
    register_fault_model,
)
from repro.fsim.backend import create_backend
from repro.sim.patterns import PatternPairSet, PatternSet


class TestLookup:
    def test_builtin_models_registered(self):
        assert "stuck_at" in available_fault_models()
        assert "transition" in available_fault_models()

    def test_fault_model_by_name(self):
        assert fault_model("stuck_at") is STUCK_AT
        assert fault_model("transition") is TRANSITION

    def test_instances_pass_through(self):
        assert fault_model(STUCK_AT) is STUCK_AT

    def test_unknown_name_lists_available(self):
        with pytest.raises(FaultModelError) as excinfo:
            fault_model("bridging")
        assert "stuck_at" in str(excinfo.value)
        assert "transition" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(FaultModelError):
            register_fault_model(STUCK_AT)

    def test_replace_allows_override(self):
        register_fault_model(STUCK_AT, replace=True)
        assert fault_model("stuck_at") is STUCK_AT


class TestDispatch:
    def test_model_for_block(self):
        assert model_for_block(PatternSet.random(4, 8)).name == "stuck_at"
        assert model_for_block(
            PatternPairSet.random(4, 8)
        ).name == "transition"

    def test_model_for_unknown_container(self):
        with pytest.raises(FaultModelError, match="list"):
            model_for_block([0, 1])

    def test_query_detection_matrix_single_vectors(self):
        circ = lion_like()
        faults = collapsed_fault_list(circ)
        engine = create_backend(circ, "bigint")
        block = PatternSet.exhaustive(circ.num_inputs)
        matrix = query_detection_matrix(engine, block, faults)
        assert matrix.num_faults == len(faults)
        assert matrix.any_rows().any()  # the exhaustive set detects something

    def test_query_detection_matrix_pairs(self):
        circ = lion_like()
        faults = transition_fault_list(circ)
        engine = create_backend(circ, "bigint")
        block = PatternPairSet.random(circ.num_inputs, 64, seed=3)
        matrix = query_detection_matrix(engine, block, faults)
        assert matrix.num_faults == len(faults)
        assert matrix.any_rows().any()


class TestModelSurface:
    def test_target_faults_collapse_switch(self):
        circ = lion_like()
        model = fault_model("stuck_at")
        collapsed = model.target_faults(circ)
        full = model.target_faults(circ, collapse=False)
        assert collapsed == collapsed_fault_list(circ)
        assert len(full) > len(collapsed)

    def test_random_pool_container_types(self):
        assert isinstance(
            STUCK_AT.random_pool(5, 16, 1), PatternSet
        )
        assert isinstance(
            TRANSITION.random_pool(5, 16, 1), PatternPairSet
        )

    def test_random_pool_deterministic(self):
        assert STUCK_AT.random_pool(5, 16, 9) == STUCK_AT.random_pool(5, 16, 9)

    def test_fault_codec_round_trip(self):
        sa = Fault(3, -1, 1)
        assert STUCK_AT.fault_from_json(STUCK_AT.fault_to_json(sa)) == sa
        tr = TransitionFault(4, 0, 1)
        assert TRANSITION.fault_from_json(TRANSITION.fault_to_json(tr)) == tr

    def test_codec_survives_json_text(self):
        import json

        tr = TransitionFault(7, -1, 0)
        data = json.loads(json.dumps(TRANSITION.fault_to_json(tr)))
        assert TRANSITION.fault_from_json(data) == tr


class TestExtension:
    def test_custom_model_registers_and_dispatches(self):
        class MarkerBlock(PatternSet):
            pass

        custom = FaultModel(
            name="unit_test_custom",
            fault_type=Fault,
            container_type=MarkerBlock,
            universe=lambda circ: [],
            collapse=lambda circ: [],
            random_pool=lambda n, c, s: MarkerBlock(n, 0, tuple([0] * n)),
            load=lambda engine, block: engine.load(block),
            query=lambda engine, faults: engine.detection_matrix(faults),
            testgen=lambda circ, ordered, config=None: None,
            fault_to_json=lambda f: [f.node, f.pin, f.value],
            fault_from_json=lambda d: Fault(*d),
        )
        register_fault_model(custom)
        try:
            assert "unit_test_custom" in available_fault_models()
            assert fault_model("unit_test_custom") is custom
            # NOTE: MarkerBlock is also a PatternSet, so plain stuck_at may
            # match first; dispatch resolves to *a* model that accepts it.
            assert model_for_block(
                custom.random_pool(3, 0, 0)
            ).container_type in (PatternSet, MarkerBlock)
        finally:
            from repro.faults import registry

            registry._REGISTRY.pop("unit_test_custom", None)
