"""FlowConfig: defaults, validation, JSON round-trips, immutability."""

import dataclasses
import json

import pytest

from repro.errors import ExperimentError
from repro.flow import (
    AdiSpec,
    BackendSpec,
    CONFIG_VERSION,
    CircuitSpec,
    FaultModelSpec,
    FlowConfig,
    OrderSpec,
    TestGenSpec,
    USpec,
)


class TestDefaults:
    def test_default_config_is_valid(self):
        config = FlowConfig()
        assert config.validate() is config
        assert config.circuit.kind == "suite"
        assert config.fault_model.name == "stuck_at"
        assert config.order.name == "0dynm"
        assert config.seed == 2005
        assert config.version == CONFIG_VERSION

    def test_default_matches_paper_procedure(self):
        config = FlowConfig()
        assert config.u.max_vectors == 10_000
        assert config.u.target_coverage == pytest.approx(0.90)
        assert config.adi.mode == "minimum"
        assert config.testgen.backtrack_limit == 200
        assert config.testgen.fill == "random"

    def test_specs_are_frozen(self):
        config = FlowConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.u.max_vectors = 5

    def test_replace_produces_new_value(self):
        config = FlowConfig()
        other = config.replace(seed=7)
        assert other.seed == 7
        assert config.seed == 2005
        assert other != config


class TestValidation:
    def test_unknown_fault_model(self):
        config = FlowConfig(fault_model=FaultModelSpec(name="bridging"))
        with pytest.raises(ExperimentError, match="bridging"):
            config.validate()

    def test_unknown_order(self):
        with pytest.raises(ExperimentError, match="best"):
            FlowConfig(order=OrderSpec(name="best")).validate()

    def test_unknown_adi_mode(self):
        with pytest.raises(ExperimentError, match="median"):
            FlowConfig(adi=AdiSpec(mode="median")).validate()

    def test_unknown_fill(self):
        with pytest.raises(ExperimentError, match="fill"):
            FlowConfig(testgen=TestGenSpec(fill="checker")).validate()

    def test_unknown_backend(self):
        with pytest.raises(ExperimentError, match="cuda"):
            FlowConfig(backend=BackendSpec(fsim="cuda")).validate()

    def test_bad_circuit_kind(self):
        with pytest.raises(ExperimentError, match="kind"):
            FlowConfig(circuit=CircuitSpec(kind="netlist")).validate()

    def test_bench_requires_path(self):
        with pytest.raises(ExperimentError, match="path"):
            FlowConfig(circuit=CircuitSpec(kind="bench")).validate()

    def test_generator_requires_dimensions(self):
        with pytest.raises(ExperimentError, match="num_inputs"):
            FlowConfig(circuit=CircuitSpec(kind="generator")).validate()

    def test_coverage_range(self):
        with pytest.raises(ExperimentError, match="target_coverage"):
            FlowConfig(u=USpec(target_coverage=1.5)).validate()

    def test_version_mismatch(self):
        with pytest.raises(ExperimentError, match="version"):
            FlowConfig(version=CONFIG_VERSION + 1).validate()


class TestJsonRoundTrip:
    def test_default_round_trip(self):
        config = FlowConfig()
        assert FlowConfig.from_json(config.to_json()) == config

    def test_non_default_round_trip(self):
        config = FlowConfig(
            circuit=CircuitSpec(kind="generator", name="g", num_inputs=6,
                                num_gates=30, num_outputs=3, gen_seed=4),
            fault_model=FaultModelSpec(name="transition", collapse=False),
            u=USpec(max_vectors=512, target_coverage=0.8, chunk_size=32,
                    prune_useless=True),
            adi=AdiSpec(mode="average"),
            order=OrderSpec(name="dynm"),
            testgen=TestGenSpec(backtrack_limit=99, fill="zero"),
            backend=BackendSpec(fsim="numpy"),
            seed=123,
        )
        restored = FlowConfig.from_json(config.to_json())
        assert restored == config
        assert restored.validate()

    def test_from_json_file_path(self, tmp_path):
        config = FlowConfig(seed=77)
        path = tmp_path / "flow.json"
        path.write_text(config.to_json())
        assert FlowConfig.from_json(path) == config
        assert FlowConfig.from_json(str(path)) == config

    def test_partial_document_fills_defaults(self):
        restored = FlowConfig.from_dict({"seed": 9, "order": {"name": "decr"}})
        assert restored.seed == 9
        assert restored.order.name == "decr"
        assert restored.u == USpec()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ExperimentError, match="orderr"):
            FlowConfig.from_dict({"orderr": {"name": "decr"}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ExperimentError, match="max_vector"):
            FlowConfig.from_dict({"u": {"max_vector": 10}})

    def test_invalid_json_text(self):
        with pytest.raises(ExperimentError, match="JSON"):
            FlowConfig.from_json("{not json")

    def test_to_dict_is_json_pure(self):
        json.dumps(FlowConfig().to_dict())


class TestFieldTypes:
    """Each value in a config document must fit its field's declared type."""

    @pytest.mark.parametrize("document, field", [
        ({"u": {"max_vectors": "100"}}, "u.max_vectors"),
        ({"u": {"max_vectors": True}}, "u.max_vectors"),
        ({"u": {"target_coverage": False}}, "u.target_coverage"),
        ({"u": {"prune_useless": 1}}, "u.prune_useless"),
        ({"testgen": {"backtrack_limit": 1.5}}, "testgen.backtrack_limit"),
        ({"circuit": {"kind": "generator", "name": "g", "num_inputs": "4",
                      "num_gates": 10, "num_outputs": 2}},
         "circuit.num_inputs"),
        ({"circuit": {"name": None}}, "circuit.name"),
        ({"order": {"name": 3}}, "order.name"),
        ({"backend": {"fsim": ["numpy"]}}, "backend.fsim"),
        ({"seed": True}, "seed"),
        ({"version": 1.0}, "version"),
    ])
    def test_mistyped_value_names_its_field(self, document, field):
        with pytest.raises(ExperimentError, match=rf"{field} must be "):
            FlowConfig.from_dict(document)

    def test_accepted_spellings(self):
        config = FlowConfig.from_dict({
            "u": {"target_coverage": 1},
            "circuit": {"kind": "generator", "name": "g", "num_inputs": 4,
                        "num_gates": 10, "num_outputs": 2, "path": None},
            "backend": {"fsim": None},
            "seed": 0,
        })
        assert config.u.target_coverage == 1
        assert config.validate() is config

    @pytest.mark.parametrize("key", ("shards", "shard_base"))
    def test_removed_backend_knobs_are_unknown_keys(self, key):
        with pytest.raises(ExperimentError, match=key):
            FlowConfig.from_dict({"backend": {"fsim": "parallel", key: 2}})
