"""The sharded ``parallel`` backend: bit-exactness and plumbing.

The headline contract: sharding the fault universe across worker
processes and reassembling the per-shard :class:`DetectionMatrix` rows
is **bit-identical** to the single-core result — for shard counts
{1, 2, 3, 7} (uneven splits included), block widths straddling uint64
word boundaries {63, 64, 65, 129}, both fault models, and both base
engines.  Around it: the shard planner, the ``parallel[:S[:BASE]]``
spec strings, the env knobs, the ``BackendSpec``/CLI plumbing, and the
``auto`` dispatcher's parallel thresholds.
"""

import multiprocessing
import os

import pytest

from repro.errors import ExperimentError, SimulationError
from repro.faults import collapsed_fault_list
from repro.faults.registry import fault_model
from repro.faults.transition import transition_fault_list
from repro.flow.cli import build_config, make_parser
from repro.flow.config import BackendSpec, FlowConfig
from repro.fsim.backend import AutoFaultSim, available_backends, create_backend
from repro.fsim.sharded import (
    SHARD_BASE_ENV_VAR,
    SHARDS_ENV_VAR,
    ShardedFaultSim,
    default_base,
    default_num_shards,
    plan_shards,
    sharded_from_spec,
)
from repro.sim.patterns import PatternPairSet, PatternSet

from helpers import generated_circuit

#: Shard counts covering the degenerate, even, uneven and oversubscribed
#: cases on the test circuit's fault lists.
SHARD_COUNTS = (1, 2, 3, 7)

#: Block widths straddling uint64 word boundaries.
BOUNDARY_WIDTHS = (63, 64, 65, 129)

MODELS = ("stuck_at", "transition")

BASES = ("bigint", "numpy")


@pytest.fixture(scope="module")
def circuit():
    return generated_circuit(11, num_inputs=9, num_gates=70, num_outputs=5,
                             hardness=0.3)


@pytest.fixture(scope="module")
def faults_by_model(circuit):
    return {
        "stuck_at": collapsed_fault_list(circuit),
        "transition": transition_fault_list(circuit),
    }


def _block(model_name, num_inputs, width):
    cls = PatternPairSet if model_name == "transition" else PatternSet
    return cls.random(num_inputs, width, seed=width * 7 + 1)


@pytest.fixture(scope="module")
def reference(circuit, faults_by_model):
    """Single-core numpy matrices per (model, width) — the oracle."""
    out = {}
    for model_name in MODELS:
        model = fault_model(model_name)
        faults = faults_by_model[model_name]
        for width in BOUNDARY_WIDTHS:
            engine = create_backend(circuit, "numpy")
            block = _block(model_name, circuit.num_inputs, width)
            model.load(engine, block)
            out[(model_name, width)] = model.query(engine, faults)
    return out


class TestPlanShards:
    def test_even_split(self):
        assert plan_shards(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_extras(self):
        assert plan_shards(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_items_yields_empty_tails(self):
        plan = plan_shards(2, 5)
        assert plan == [(0, 1), (1, 2), (2, 2), (2, 2), (2, 2)]

    def test_zero_items(self):
        assert plan_shards(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_covers_exactly_and_in_order(self):
        for items in (0, 1, 5, 63, 64, 65, 1000):
            for shards in (1, 2, 3, 7, 16):
                plan = plan_shards(items, shards)
                assert len(plan) == shards
                assert plan[0][0] == 0 and plan[-1][1] == items
                for (__, a_stop), (b_start, __) in zip(plan, plan[1:]):
                    assert a_stop == b_start
                sizes = [stop - start for start, stop in plan]
                assert max(sizes) - min(sizes) <= 1

    def test_invalid_arguments(self):
        with pytest.raises(SimulationError):
            plan_shards(-1, 2)
        with pytest.raises(SimulationError):
            plan_shards(4, 0)


class TestCrossShardEquivalence:
    """Sharded-vs-serial bit-exactness across the full matrix."""

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical(self, circuit, faults_by_model, reference,
                           base, num_shards):
        before = len(multiprocessing.active_children())
        with ShardedFaultSim(circuit, base=base, num_shards=num_shards,
                             min_faults=1) as engine:
            for model_name in MODELS:
                model = fault_model(model_name)
                faults = faults_by_model[model_name]
                for width in BOUNDARY_WIDTHS:
                    block = _block(model_name, circuit.num_inputs, width)
                    model.load(engine, block)
                    matrix = model.query(engine, faults)
                    assert matrix == reference[(model_name, width)], (
                        model_name, width)
        assert len(multiprocessing.active_children()) == before

    def test_empty_shards_are_bit_identical(self, circuit, faults_by_model,
                                            reference):
        # 7 shards over 5 faults: two loaded shards, five empty ones.
        faults = faults_by_model["stuck_at"][:5]
        with ShardedFaultSim(circuit, num_shards=7, min_faults=0) as engine:
            engine.load(_block("stuck_at", circuit.num_inputs, 65))
            matrix = engine.detection_matrix(faults)
        assert matrix == reference[("stuck_at", 65)].row_slice(0, 5)

    def test_words_view_matches(self, circuit, faults_by_model):
        faults = faults_by_model["stuck_at"]
        serial = create_backend(circuit, "bigint")
        block = _block("stuck_at", circuit.num_inputs, 64)
        serial.load(block)
        expected = serial.detection_words(faults)
        with ShardedFaultSim(circuit, base="bigint", num_shards=3,
                             min_faults=1) as engine:
            engine.load(block)
            assert engine.detection_words(faults) == expected
            assert engine.num_patterns == 64

    def test_transition_word_views_match(self, circuit, faults_by_model):
        faults = faults_by_model["transition"]
        serial = create_backend(circuit, "numpy")
        block = _block("transition", circuit.num_inputs, 63)
        serial.load_pairs(block)
        expected = serial.transition_detection_words(faults)
        with ShardedFaultSim(circuit, num_shards=2, min_faults=1) as engine:
            engine.load_pairs(block)
            assert engine.transition_detection_words(faults) == expected

    def test_small_queries_run_inline(self, circuit, faults_by_model):
        """Below min_faults the pool is never created."""
        engine = ShardedFaultSim(circuit, num_shards=4, min_faults=10 ** 6)
        engine.load(_block("stuck_at", circuit.num_inputs, 64))
        engine.detection_matrix(faults_by_model["stuck_at"])
        assert engine._pool is None
        engine.close()

    def test_query_without_block_fails_loudly(self, circuit):
        engine = ShardedFaultSim(circuit, num_shards=2)
        with pytest.raises(SimulationError, match="load"):
            engine.detection_matrix([])
        with pytest.raises(SimulationError, match="load_pairs"):
            engine.transition_detection_matrix([])


class TestSpecAndEnvKnobs:
    def test_registered(self):
        assert "parallel" in available_backends()

    def test_plain_name_uses_defaults(self, circuit):
        engine = create_backend(circuit, "parallel")
        assert engine.name == "parallel"
        assert engine.base == default_base()
        assert engine.num_shards == default_num_shards()

    def test_spec_string_pins_knobs(self, circuit):
        engine = create_backend(circuit, "parallel:3:bigint")
        assert (engine.num_shards, engine.base) == (3, "bigint")
        engine = sharded_from_spec(circuit, "parallel:5")
        assert (engine.num_shards, engine.base) == (5, default_base())
        engine = sharded_from_spec(circuit, "parallel::bigint")
        assert engine.base == "bigint"
        assert engine.num_shards == default_num_shards()

    def test_bad_specs_fail_loudly(self, circuit):
        with pytest.raises(SimulationError, match="shard count"):
            sharded_from_spec(circuit, "parallel:zero")
        with pytest.raises(SimulationError, match="spec"):
            sharded_from_spec(circuit, "parallel:1:numpy:extra")
        with pytest.raises(SimulationError, match="itself"):
            ShardedFaultSim(circuit, base="parallel")
        with pytest.raises(SimulationError, match=">= 1"):
            ShardedFaultSim(circuit, num_shards=0)

    def test_env_overrides(self, circuit, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV_VAR, "6")
        monkeypatch.setenv(SHARD_BASE_ENV_VAR, "bigint")
        engine = ShardedFaultSim(circuit)
        assert (engine.num_shards, engine.base) == (6, "bigint")

    def test_bad_env_shards_fail_loudly(self, circuit, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV_VAR, "many")
        with pytest.raises(SimulationError, match=SHARDS_ENV_VAR):
            ShardedFaultSim(circuit)
        monkeypatch.setenv(SHARDS_ENV_VAR, "0")
        with pytest.raises(SimulationError, match=SHARDS_ENV_VAR):
            ShardedFaultSim(circuit)

    def test_backend_env_var_selects_parallel(self, circuit, monkeypatch):
        monkeypatch.setenv("REPRO_FSIM_BACKEND", "parallel:2:bigint")
        engine = create_backend(circuit)
        assert engine.name == "parallel"
        assert (engine.num_shards, engine.base) == (2, "bigint")


class TestBackendSpecKnobs:
    def test_fsim_spec_composition(self):
        assert BackendSpec().fsim_spec() is None
        assert BackendSpec(fsim="numpy").fsim_spec() == "numpy"
        assert BackendSpec(fsim="parallel").fsim_spec() == "parallel"
        assert BackendSpec(fsim="parallel", shards=4).fsim_spec() \
            == "parallel:4"
        assert BackendSpec(fsim="parallel", shards=4,
                           shard_base="bigint").fsim_spec() \
            == "parallel:4:bigint"
        assert BackendSpec(fsim="parallel",
                           shard_base="bigint").fsim_spec() \
            == "parallel::bigint"

    def test_validation(self):
        BackendSpec(fsim="parallel", shards=2, shard_base="numpy").validate()
        with pytest.raises(ExperimentError, match="parallel"):
            BackendSpec(fsim="numpy", shards=2).validate()
        with pytest.raises(ExperimentError, match=">= 1"):
            BackendSpec(fsim="parallel", shards=0).validate()
        with pytest.raises(ExperimentError, match="shard_base"):
            BackendSpec(fsim="parallel", shard_base="parallel").validate()

    def test_json_round_trip_and_cache_key_neutrality(self):
        config = FlowConfig(backend=BackendSpec(fsim="parallel", shards=3,
                                                shard_base="numpy"))
        again = FlowConfig.from_json(config.to_json())
        assert again.backend == config.backend
        # Backends are bit-identical by contract: shard knobs must not
        # move any artifact-cache key.
        from repro.flow.flow import Flow

        plain = Flow(FlowConfig())
        knobbed = Flow(config)
        assert plain.adi_key() == knobbed.adi_key()
        assert plain.testgen_key() == knobbed.testgen_key()

    def test_fsim_spec_resolves_through_create_backend(self, circuit):
        spec = BackendSpec(fsim="parallel", shards=2, shard_base="bigint")
        engine = create_backend(circuit, spec.fsim_spec())
        assert (engine.num_shards, engine.base) == (2, "bigint")

    def test_cli_flags(self):
        parser = make_parser()
        config = build_config(parser.parse_args(
            ["run", "--backend", "parallel", "--fsim-shards", "4",
             "--fsim-base", "numpy"]
        ))
        assert config.backend == BackendSpec(fsim="parallel", shards=4,
                                             shard_base="numpy")
        assert config.backend.fsim_spec() == "parallel:4:numpy"

    def test_cli_backend_switch_drops_shard_knobs(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(FlowConfig(backend=BackendSpec(
            fsim="parallel", shards=4)).to_json())
        config = build_config(make_parser().parse_args(
            ["run", "--config", str(path), "--backend", "numpy"]
        ))
        assert config.backend == BackendSpec(fsim="numpy")


class TestAutoDispatch:
    def _auto(self, circuit, monkeypatch, available):
        monkeypatch.setattr("repro.fsim.sharded.parallel_available",
                            lambda: available)
        monkeypatch.setattr(AutoFaultSim, "PARALLEL_MIN_FAULTS", 4)
        monkeypatch.setattr(AutoFaultSim, "PARALLEL_MIN_GATES", 4)
        monkeypatch.setattr(AutoFaultSim, "PARALLEL_MIN_PATTERNS", 4)
        return AutoFaultSim(circuit)

    def test_picks_parallel_above_thresholds(self, circuit, faults_by_model,
                                             monkeypatch):
        auto = self._auto(circuit, monkeypatch, available=True)
        auto.load(PatternSet.random(circuit.num_inputs, 64, seed=3))
        assert auto._pick(len(faults_by_model["stuck_at"])) == "parallel"
        matrix = auto.detection_matrix(faults_by_model["stuck_at"])
        serial = create_backend(circuit, "numpy")
        serial.load(PatternSet.random(circuit.num_inputs, 64, seed=3))
        assert matrix == serial.detection_matrix(faults_by_model["stuck_at"])
        auto._engines["parallel"].close()

    def test_falls_back_when_parallel_cannot_help(self, circuit,
                                                  monkeypatch):
        auto = self._auto(circuit, monkeypatch, available=False)
        auto.load(PatternSet.random(circuit.num_inputs, 64, seed=3))
        assert auto._pick(10 ** 6) == "numpy"

    def test_below_thresholds_keeps_existing_choice(self, circuit,
                                                    monkeypatch):
        monkeypatch.setattr("repro.fsim.sharded.parallel_available",
                            lambda: True)
        auto = AutoFaultSim(circuit)  # real (high) parallel thresholds
        auto.load(PatternSet.random(circuit.num_inputs, 64, seed=3))
        assert auto._pick(100) == "numpy"
        assert auto._pick(2) == "bigint"

    def test_workers_never_reshard(self):
        """Inside a daemonic worker, parallel_available() must say no."""
        from repro.fsim.sharded import parallel_available

        daemon = multiprocessing.current_process().daemon
        assert daemon is False  # test process is not a worker
        if os.cpu_count() == 1:
            assert parallel_available() is False
