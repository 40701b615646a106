"""Backend registry + cross-backend equivalence tests.

The contract under test: every registered backend returns *bit-identical*
detection words for the same (circuit, faults, patterns) triple.  The
bigint engine is the oracle (itself property-tested against the serial
simulator); the numpy and auto engines must match it exactly.
"""

import random

import pytest

from helpers import engine_words, generated_circuit

from repro.circuit.flatten import compile_circuit
from repro.circuit.gate_types import GateType
from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.faults import (
    TransitionFault,
    collapsed_fault_list,
    full_universe,
    transition_universe,
)
from repro.faults.model import Fault
from repro.fsim import backend as backend_mod
from repro.fsim.backend import (
    AutoFaultSim,
    available_backends,
    create_backend,
    default_backend_name,
    register_backend,
    resolve_backend,
)
from repro.fsim.npfsim import NumpyFaultSim
from repro.fsim.parallel import ParallelFaultSimulator
from repro.fsim.sharded import ShardedFaultSim
from repro.resilience import RetryPolicy
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.telemetry import scoped_registry

ALL_BACKENDS = ("bigint", "numpy", "auto")


def region_edge_circuit():
    """A hand-built netlist with every fanout-free-region corner case.

    ``po`` is a primary output that also feeds logic; ``twice`` reads one
    signal on two pins; ``k0``/``k1`` are constants feeding logic;
    ``and1``/``or1`` are one-input AND/OR gates; ``ch1`` .. ``ch5`` is a
    fanout-free chain of 3- and 4-input gates, with XOR and XNOR links,
    that ends at an output.  ``a`` reconverges at ``ch3`` through ``po``
    and ``or1``.
    """
    circuit = Circuit(name="regions")
    for name in ("a", "b", "c", "d", "e", "f"):
        circuit.add_input(name)
    circuit.add_gate("po", GateType.NAND, ("a", "b"))
    circuit.add_gate("twice", GateType.OR, ("c", "c"))
    circuit.add_gate("k0", GateType.CONST0, ())
    circuit.add_gate("k1", GateType.CONST1, ())
    circuit.add_gate("m0", GateType.OR, ("k0", "d"))
    circuit.add_gate("m1", GateType.AND, ("k1", "e"))
    circuit.add_gate("and1", GateType.AND, ("f",))
    circuit.add_gate("or1", GateType.OR, ("a",))
    circuit.add_gate("ch1", GateType.AND, ("po", "twice", "m0"))
    circuit.add_gate("ch2", GateType.XOR, ("ch1", "m1"))
    circuit.add_gate("ch3", GateType.NOR, ("ch2", "and1", "or1", "b"))
    circuit.add_gate("ch4", GateType.XNOR, ("ch3", "e", "f"))
    circuit.add_gate("ch5", GateType.NAND, ("ch4", "c", "d", "m1"))
    circuit.add_output("po")
    circuit.add_output("ch5")
    return compile_circuit(circuit)


def with_every_pin(circ, universe, make):
    """``universe`` plus faults on the pins it leaves out, shuffled.

    The uncollapsed universe skips pins whose driver does not branch;
    ``make(node, pin, value)`` builds the two faults of each such pin.
    """
    faults = set(universe)
    for node in circ.gate_nodes():
        for pin in range(len(circ.fanin[node])):
            faults.update((make(node, pin, 0), make(node, pin, 1)))
    faults = sorted(faults)
    random.Random(len(faults)).shuffle(faults)
    return faults


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    def test_create_by_name(self, c17_circuit):
        assert isinstance(create_backend(c17_circuit, "bigint"),
                          ParallelFaultSimulator)
        assert isinstance(create_backend(c17_circuit, "numpy"),
                          NumpyFaultSim)
        assert isinstance(create_backend(c17_circuit, "auto"), AutoFaultSim)

    def test_unknown_name_raises(self, c17_circuit):
        with pytest.raises(SimulationError, match="unknown fault-sim backend"):
            create_backend(c17_circuit, "no-such-engine")

    def test_duplicate_registration_raises(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_backend("bigint", ParallelFaultSimulator)

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "numpy")
        assert default_backend_name() == "numpy"
        monkeypatch.delenv(backend_mod.BACKEND_ENV_VAR)
        assert default_backend_name() == "auto"

    def test_bad_env_var_raises_with_source(self, c17_circuit, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "no-such-engine")
        with pytest.raises(SimulationError) as err:
            create_backend(c17_circuit)
        message = str(err.value)
        assert "no-such-engine" in message
        assert backend_mod.BACKEND_ENV_VAR in message
        for name in ALL_BACKENDS:
            assert name in message

    def test_bad_env_var_raises_at_resolution(self, c17_circuit, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "typo")
        with pytest.raises(SimulationError, match="unknown fault-sim"):
            resolve_backend(c17_circuit, None)

    def test_bad_argument_does_not_blame_env(self, c17_circuit, monkeypatch):
        monkeypatch.delenv(backend_mod.BACKEND_ENV_VAR, raising=False)
        with pytest.raises(SimulationError) as err:
            create_backend(c17_circuit, "nope")
        assert backend_mod.BACKEND_ENV_VAR not in str(err.value)

    def test_whitespace_env_var_falls_back_to_default(self, c17_circuit,
                                                      monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "   ")
        assert isinstance(create_backend(c17_circuit), AutoFaultSim)

    def test_resolve_passes_instances_through(self, c17_circuit):
        engine = create_backend(c17_circuit, "bigint")
        assert resolve_backend(c17_circuit, engine) is engine

    def test_resolve_rejects_foreign_instance(self, c17_circuit, mux_circuit):
        engine = create_backend(c17_circuit, "bigint")
        with pytest.raises(SimulationError, match="different circuit"):
            resolve_backend(mux_circuit, engine)

    def test_query_before_load_raises(self, c17_circuit):
        fault = Fault(node=0, pin=-1, value=1)
        for name in ALL_BACKENDS:
            engine = create_backend(c17_circuit, name)
            with pytest.raises(SimulationError, match="load"):
                engine.detection_words([fault])


class TestLoadChecks:
    """A block with the wrong input count is a caller error, raised at load."""

    @staticmethod
    def _engine(circ, name):
        if name == "parallel":
            # Two shards and min_faults=1: queries take the pool path.
            return ShardedFaultSim(
                circ, num_shards=2, min_faults=1,
                policy=RetryPolicy(max_attempts=3, backoff_seconds=0.0),
            )
        return create_backend(circ, name)

    @pytest.mark.parametrize("name", ("bigint", "numpy", "auto", "parallel"))
    def test_wrong_width_blocks_raise_at_load(self, name):
        circ = generated_circuit(5, num_inputs=8, num_gates=40)
        engine = self._engine(circ, name)
        with scoped_registry() as registry:
            with pytest.raises(SimulationError, match="9 inputs"):
                engine.load(PatternSet.random(9, 16, seed=1))
            with pytest.raises(SimulationError, match="9 inputs"):
                engine.load_pairs(PatternPairSet.random(9, 16, seed=1))
        assert [family.name for family in registry.families()
                if family.name.startswith("repro_resilience_")] == []
        assert engine.num_patterns == 0

    @pytest.mark.parametrize("name", ("bigint", "numpy", "auto", "parallel"))
    def test_rejected_block_keeps_the_staged_one(self, name):
        circ = generated_circuit(5, num_inputs=8, num_gates=40)
        faults = collapsed_fault_list(circ)
        transition_faults = transition_universe(circ)
        patterns = PatternSet.random(8, 16, seed=2)
        pairs = PatternPairSet.random(8, 24, seed=3)
        engine = self._engine(circ, name)
        try:
            engine.load(patterns)
            with pytest.raises(SimulationError, match="9 inputs"):
                engine.load(PatternSet.random(9, 16, seed=1))
            assert engine.num_patterns == 16
            assert engine.detection_words(faults) == \
                engine_words(circ, faults, patterns, "bigint")
            engine.load_pairs(pairs)
            with pytest.raises(SimulationError, match="9 inputs"):
                engine.load(PatternSet.random(9, 16, seed=1))
            with pytest.raises(SimulationError, match="9 inputs"):
                engine.load_pairs(PatternPairSet.random(9, 16, seed=1))
            assert engine.num_patterns == 24
            assert engine.transition_detection_words(transition_faults) == \
                engine_words(circ, transition_faults, pairs, "bigint")
            assert engine.detection_words(faults) == \
                engine_words(circ, faults, pairs.capture, "bigint")
        finally:
            if isinstance(engine, ShardedFaultSim):
                engine.close()


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 92, 480])
    def test_generated_circuits_bit_identical(self, seed):
        circ = generated_circuit(seed, num_inputs=8, num_gates=48,
                                 num_outputs=5)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, 96, seed=seed + 1)
        reference = engine_words(circ, faults, patterns, "bigint")
        for name in ("numpy", "auto"):
            assert engine_words(circ, faults, patterns, name) == reference, \
                name

    def test_small_circuits_exhaustive(self, small_circuit):
        faults = collapsed_fault_list(small_circuit)
        patterns = PatternSet.exhaustive(small_circuit.num_inputs)
        reference = engine_words(small_circuit, faults, patterns, "bigint")
        for name in ("numpy", "auto"):
            assert engine_words(small_circuit, faults, patterns,
                                name) == reference, name

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 200])
    def test_word_boundary_widths(self, width):
        # 63/64/65 cross the uint64 word boundary of the numpy packing.
        circ = generated_circuit(7, num_inputs=6, num_gates=40)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, width, seed=width)
        assert (engine_words(circ, faults, patterns, "numpy")
                == engine_words(circ, faults, patterns, "bigint"))

    def test_degenerate_arity_gates(self):
        # Single-input AND/OR and 3-input gates are legal netlists; the
        # levelized engine must route them down its non-vectorized path.
        from repro.circuit.flatten import compile_circuit
        from repro.circuit.gate_types import GateType
        from repro.circuit.netlist import Circuit

        circuit = Circuit(name="degenerate")
        for name in ("a", "b", "c"):
            circuit.add_input(name)
        circuit.add_gate("g1", GateType.AND, ("a",))
        circuit.add_gate("g2", GateType.OR, ("b",))
        circuit.add_gate("g3", GateType.NAND, ("g1", "g2", "c"))
        circuit.add_gate("g4", GateType.XNOR, ("g3", "a"))
        circuit.add_output("g4")
        circ = compile_circuit(circuit)

        faults = collapsed_fault_list(circ)
        patterns = PatternSet.exhaustive(circ.num_inputs)
        reference = engine_words(circ, faults, patterns, "bigint")
        for name in ("numpy", "auto"):
            assert engine_words(circ, faults, patterns, name) == reference, \
                name

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 129])
    def test_region_edge_cases_stuck_at(self, width):
        circ = region_edge_circuit()
        faults = with_every_pin(circ, full_universe(circ), Fault)
        patterns = PatternSet.random(circ.num_inputs, width, seed=width)
        assert (engine_words(circ, faults, patterns, "numpy")
                == engine_words(circ, faults, patterns, "bigint"))

    @pytest.mark.parametrize("width", [1, 63, 64, 65, 129])
    def test_region_edge_cases_transition(self, width):
        circ = region_edge_circuit()
        faults = with_every_pin(circ, transition_universe(circ),
                                TransitionFault)
        pairs = PatternPairSet.random(circ.num_inputs, width, seed=width)
        assert (engine_words(circ, faults, pairs, "numpy")
                == engine_words(circ, faults, pairs, "bigint"))


class TestEdgeCases:
    def test_empty_pattern_block(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        empty = PatternSet.from_vectors([], c17_circuit.num_inputs)
        for name in ALL_BACKENDS:
            engine = create_backend(c17_circuit, name)
            engine.load(empty)
            assert engine.num_patterns == 0
            assert engine.detection_words(faults) == [0] * len(faults), name

    def test_single_pattern_block(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        single = PatternSet.from_vectors([[1, 0, 1, 0, 1]],
                                         c17_circuit.num_inputs)
        words = {
            name: engine_words(c17_circuit, faults, single, name)
            for name in ALL_BACKENDS
        }
        assert words["numpy"] == words["bigint"] == words["auto"]
        # single-pattern words are 0 or 1 by construction
        assert all(w in (0, 1) for w in words["bigint"])
        assert any(words["bigint"])  # c17 has detectable faults

    def test_empty_fault_list(self, c17_circuit):
        patterns = PatternSet.random(c17_circuit.num_inputs, 8, seed=0)
        for name in ALL_BACKENDS:
            engine = create_backend(c17_circuit, name)
            engine.load(patterns)
            assert engine.detection_words([]) == []

    def test_numpy_batching_matches_single_batch(self):
        # Force multi-batch execution and compare against one big batch.
        circ = generated_circuit(23, num_inputs=8, num_gates=60)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, 70, seed=3)
        one = NumpyFaultSim(circ)
        one.load(patterns)
        tiny_batches = NumpyFaultSim(circ, max_batch_bytes=1)
        tiny_batches.load(patterns)
        assert tiny_batches._batch_size() == 1
        assert tiny_batches.detection_words(faults) == \
            one.detection_words(faults)

    def test_reload_switches_blocks(self, c17_circuit):
        faults = collapsed_fault_list(c17_circuit)
        first = PatternSet.random(c17_circuit.num_inputs, 16, seed=4)
        second = PatternSet.random(c17_circuit.num_inputs, 32, seed=5)
        for name in ALL_BACKENDS:
            engine = create_backend(c17_circuit, name)
            engine.load(first)
            engine.detection_words(faults)
            engine.load(second)
            assert engine.num_patterns == 32
            assert engine.detection_words(faults) == engine_words(
                c17_circuit, faults, second, "bigint"
            )


class TestPipelineBackendSwitch:
    """A single backend= argument must switch whole pipeline stages."""

    def test_compute_adi_backend_equivalence(self):
        from repro.adi import compute_adi

        circ = generated_circuit(31, num_inputs=8, num_gates=48)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, 64, seed=6)
        results = {
            name: compute_adi(circ, faults, patterns, backend=name)
            for name in ALL_BACKENDS
        }
        reference = results["bigint"]
        for name in ("numpy", "auto"):
            assert results[name].matrix == reference.matrix
            assert (results[name].adi == reference.adi).all()

    def test_drop_simulate_backend_equivalence(self):
        from repro.fsim import drop_simulate

        circ = generated_circuit(37, num_inputs=8, num_gates=48)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, 128, seed=7)
        reference = drop_simulate(circ, faults, patterns, backend="bigint")
        for name in ("numpy", "auto"):
            result = drop_simulate(circ, faults, patterns, backend=name)
            assert result.first_detection == reference.first_detection
            assert result.num_simulated == reference.num_simulated

    def test_generate_tests_backend_equivalence(self):
        from repro.atpg import TestGenConfig, generate_tests

        circ = generated_circuit(41, num_inputs=8, num_gates=36)
        faults = collapsed_fault_list(circ)
        results = {
            name: generate_tests(
                circ, faults, TestGenConfig(seed=9, backend=name)
            )
            for name in ALL_BACKENDS
        }
        reference = results["bigint"]
        for name in ("numpy", "auto"):
            assert results[name].tests.words == reference.tests.words
            assert results[name].status == reference.status

    def test_pass_fail_dictionary_backend_equivalence(self):
        from repro.diagnosis import build_pass_fail_dictionary

        circ = generated_circuit(43, num_inputs=8, num_gates=48)
        faults = collapsed_fault_list(circ)
        tests = PatternSet.random(circ.num_inputs, 48, seed=11)
        reference = build_pass_fail_dictionary(circ, faults, tests,
                                               backend="bigint")
        for name in ("numpy", "auto"):
            built = build_pass_fail_dictionary(circ, faults, tests,
                                               backend=name)
            assert built.fail_matrix == reference.fail_matrix

    def test_fdynm_backend_equivalence(self):
        from repro.adi import compute_adi, f0dynm, fdynm

        circ = generated_circuit(47, num_inputs=8, num_gates=48)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, 64, seed=13)
        for order_fn in (fdynm, f0dynm):
            orders = [
                order_fn(compute_adi(circ, faults, patterns, backend=name))
                for name in ALL_BACKENDS
            ]
            assert orders[0] == orders[1] == orders[2]

    def test_env_var_switches_default(self, monkeypatch):
        from repro.adi import compute_adi

        circ = generated_circuit(53, num_inputs=6, num_gates=30)
        faults = collapsed_fault_list(circ)
        patterns = PatternSet.random(circ.num_inputs, 32, seed=15)
        baseline = compute_adi(circ, faults, patterns, backend="bigint")
        monkeypatch.setenv(backend_mod.BACKEND_ENV_VAR, "numpy")
        via_env = compute_adi(circ, faults, patterns)
        assert via_env.matrix == baseline.matrix
