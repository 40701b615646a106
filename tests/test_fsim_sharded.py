"""The sharded ``parallel`` backend: bit-exactness and plumbing.

The headline contract: sharding the fault universe across worker
processes and reassembling the per-shard :class:`DetectionMatrix` rows
is **bit-identical** to the single-core result — for shard counts
{1, 2, 3, 7} (uneven splits included), block widths straddling uint64
word boundaries {63, 64, 65, 129}, both fault models, and both base
engines.  Around it: the shard planner, the ``parallel`` registry name
and its one env knob, the rule that ``auto`` never picks the engine,
and a whole :class:`~repro.flow.flow.Flow` run through the opt-in
engine's worker pool.
"""

import multiprocessing

import pytest

from repro.adi import ORDERS
from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.faults.registry import fault_model
from repro.faults.transition import transition_fault_list
from repro.flow import (
    BackendSpec,
    CircuitSpec,
    FaultModelSpec,
    Flow,
    FlowConfig,
    USpec,
)
from repro.fsim import backend as backend_mod
from repro.fsim.backend import (
    AutoFaultSim,
    available_backends,
    create_backend,
)
from repro.fsim.sharded import (
    SHARDS_ENV_VAR,
    ShardedFaultSim,
    default_num_shards,
    plan_shards,
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


class TestRegisteredName:
    """``parallel`` is a plain registry name: the engine takes every
    default, and only ``$REPRO_FSIM_SHARDS`` tunes it."""

    def test_registered(self):
        assert "parallel" in available_backends()

    def test_plain_name_uses_defaults(self, circuit):
        engine = create_backend(circuit, "parallel")
        assert engine.name == "parallel"
        assert engine.base == "numpy"
        assert engine.num_shards == default_num_shards()

    def test_bad_constructor_arguments_fail_loudly(self, circuit):
        with pytest.raises(SimulationError, match="itself"):
            ShardedFaultSim(circuit, base="parallel")
        with pytest.raises(SimulationError, match=">= 1"):
            ShardedFaultSim(circuit, num_shards=0)

    def test_env_sets_the_shard_count(self, circuit, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV_VAR, "6")
        engine = create_backend(circuit, "parallel")
        assert (engine.num_shards, engine.base) == (6, "numpy")

    def test_bad_env_shards_fail_loudly(self, circuit, monkeypatch):
        monkeypatch.setenv(SHARDS_ENV_VAR, "many")
        with pytest.raises(SimulationError, match=SHARDS_ENV_VAR):
            ShardedFaultSim(circuit)
        monkeypatch.setenv(SHARDS_ENV_VAR, "0")
        with pytest.raises(SimulationError, match=SHARDS_ENV_VAR):
            ShardedFaultSim(circuit)

    def test_backend_env_var_selects_parallel(self, circuit, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "parallel")
        assert create_backend(circuit).name == "parallel"

    @pytest.mark.parametrize("spec", ("parallel:2", "parallel:2:bigint",
                                      "parallel::bigint"))
    def test_spec_strings_are_unknown_backends(self, circuit, spec):
        with pytest.raises(SimulationError,
                           match="unknown fault-sim backend"):
            create_backend(circuit, spec)

    def test_spec_string_in_env_is_an_unknown_backend(self, circuit,
                                                      monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "parallel:2:bigint")
        with pytest.raises(SimulationError,
                           match=r"unknown fault-sim backend "
                                 r"'parallel:2:bigint' \(from "):
            create_backend(circuit)


class TestAutoDispatch:
    """``auto`` chooses between ``bigint`` and ``numpy`` only."""

    @pytest.fixture(scope="class")
    def large(self):
        circ = generated_circuit(19, num_inputs=32, num_gates=2100,
                                 num_outputs=16)
        return (circ, collapsed_fault_list(circ),
                PatternSet.random(circ.num_inputs, 256, seed=5))

    def test_never_picks_parallel(self, large):
        circ, __, patterns = large
        auto = AutoFaultSim(circ)
        auto.load(patterns)
        assert circ.num_gates >= 2048 and auto.num_patterns >= 256
        assert auto._pick(5000) == "numpy"
        assert auto._pick(10 ** 6) == "numpy"

    def test_default_query_stays_in_process(self, large, monkeypatch):
        monkeypatch.delenv(backend_mod.BACKEND_ENV_VAR, raising=False)
        circ, faults, patterns = large
        assert len(faults) >= 5000
        engine = create_backend(circ)
        engine.load(patterns)
        matrix = engine.detection_matrix(faults)
        assert multiprocessing.active_children() == []
        reference = create_backend(circ, "numpy")
        reference.load(patterns)
        assert matrix == reference.detection_matrix(faults)

    def test_below_thresholds_keeps_existing_choice(self, circuit):
        auto = AutoFaultSim(circuit)
        auto.load(PatternSet.random(circuit.num_inputs, 64, seed=3))
        assert auto._pick(100) == "numpy"
        assert auto._pick(2) == "bigint"


class TestOptInThroughFlow:
    """``BackendSpec(fsim="parallel")`` sends every stage of a
    :class:`Flow` through the worker pool and changes no result."""

    @pytest.fixture
    def pooled_parallel(self, monkeypatch):
        """``parallel`` stubbed as two shards that never run inline; the
        engines built are closed and the name restored."""
        engines = []

        def factory(circ):
            engine = ShardedFaultSim(circ, num_shards=2, min_faults=1)
            engines.append(engine)
            return engine

        monkeypatch.setitem(backend_mod._REGISTRY, "parallel", factory)
        try:
            yield engines
        finally:
            for engine in engines:
                engine.close()

    def test_backend_name_moves_no_key(self):
        config = FlowConfig(backend=BackendSpec(fsim="parallel"))
        assert FlowConfig.from_json(config.to_json()) == config
        plain, named = Flow(FlowConfig()), Flow(config)
        assert plain.adi_key() == named.adi_key()
        assert plain.run_key() == named.run_key()

    @pytest.mark.parametrize("model", MODELS)
    def test_same_results_as_numpy(self, pooled_parallel, model):
        def flow(fsim):
            return Flow(FlowConfig(
                circuit=CircuitSpec(kind="generator", name="optin",
                                    num_inputs=8, num_gates=60,
                                    num_outputs=4, gen_seed=3),
                fault_model=FaultModelSpec(name=model),
                u=USpec(max_vectors=256),
                backend=BackendSpec(fsim=fsim),
                seed=11,
            ))

        pooled, inline = flow("parallel"), flow("numpy")
        assert pooled.adi().matrix == inline.adi().matrix
        for order in ORDERS:
            assert pooled.permutation(order) == inline.permutation(order)
            tests, expected = pooled.tests(order), inline.tests(order)
            assert tests.tests == expected.tests
            assert tests.status == expected.status
            assert tests.detected_per_test == expected.detected_per_test
            assert pooled.report(order) == inline.report(order)
        assert any(engine._pool is not None for engine in pooled_parallel)
