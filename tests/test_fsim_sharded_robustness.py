"""Worker-pool robustness of the sharded ``parallel`` backend.

A distributed fault simulator must fail like a single-process one: a
worker blowing up mid-shard surfaces exactly one clear exception naming
the shard, tears down the sibling workers, and leaks no processes; a
``KeyboardInterrupt`` — in the parent or inside a worker — likewise
leaves no orphans.  Every test asserts the process census via
``multiprocessing.active_children()`` in teardown.

Failure tests pin ``RetryPolicy.fail_fast()`` — the pre-supervision
semantics (one attempt, raise, never degrade) — so they exercise the
raw error path; the retry/degrade behaviour of the default policy is
covered by ``tests/test_fsim_supervision.py``.
"""

import gc
import multiprocessing

import pytest

from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.faults.model import Fault
from repro.fsim.npfsim import NumpyFaultSim
from repro.fsim.sharded import ShardedFaultSim
from repro.resilience import RetryPolicy
from repro.sim.patterns import PatternSet

from helpers import generated_circuit

#: Worker monkeypatches rely on children inheriting the patched module
#: (pools fork lazily, after the patch is applied).
FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def circuit():
    return generated_circuit(23, num_inputs=8, num_gates=60, num_outputs=4)


@pytest.fixture(scope="module")
def faults(circuit):
    return collapsed_fault_list(circuit)


@pytest.fixture
def census():
    """Assert the test left no worker processes behind."""
    before = len(multiprocessing.active_children())
    yield
    assert len(multiprocessing.active_children()) == before, \
        "sharded run leaked worker processes"


def _loaded_engine(circuit, **kwargs):
    kwargs.setdefault("policy", RetryPolicy.fail_fast())
    engine = ShardedFaultSim(circuit, min_faults=1, **kwargs)
    engine.load(PatternSet.random(circuit.num_inputs, 64, seed=9))
    return engine


class TestWorkerFailure:
    def test_bad_fault_mid_shard_surfaces_one_clear_error(
            self, circuit, faults, census):
        engine = _loaded_engine(circuit, num_shards=3)
        poisoned = list(faults)
        poisoned[len(poisoned) // 2] = Fault(10 ** 6, -1, 1)  # no such node
        with pytest.raises(SimulationError, match=r"parallel shard 1 "):
            engine.detection_matrix(poisoned)
        # The error path hard-stopped the pool: nothing left running.
        assert engine._pool is None
        assert multiprocessing.active_children() == \
            multiprocessing.active_children()  # census fixture seals this
        engine.close()

    def test_error_names_shard_range_and_base(self, circuit, faults,
                                              census):
        engine = _loaded_engine(circuit, num_shards=2, base="bigint")
        poisoned = [Fault(10 ** 6, -1, 0)] + list(faults)
        with pytest.raises(SimulationError) as excinfo:
            engine.detection_matrix(poisoned)
        message = str(excinfo.value)
        assert "shard 0" in message
        assert "'bigint'" in message
        assert "FaultModelError" in message  # the worker-side cause
        engine.close()

    def test_engine_recovers_after_failure(self, circuit, faults, census):
        """A failed query terminates the pool; the next one rebuilds it."""
        engine = _loaded_engine(circuit, num_shards=2)
        with pytest.raises(SimulationError):
            engine.detection_matrix([Fault(10 ** 6, -1, 0)] * 8)
        serial = _loaded_engine(circuit, num_shards=1)
        assert engine.detection_matrix(faults) == \
            serial.detection_matrix(faults)
        engine.close()
        serial.close()

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="needs fork inheritance")
    def test_keyboard_interrupt_inside_worker(self, circuit, faults,
                                              monkeypatch, census):
        """A KI delivered to a worker comes home as one SimulationError."""
        def interrupted(engine, shard_faults):
            raise KeyboardInterrupt

        monkeypatch.setattr(NumpyFaultSim, "detection_matrix", interrupted)
        engine = _loaded_engine(circuit, num_shards=2, base="numpy")
        with pytest.raises(SimulationError, match="KeyboardInterrupt"):
            engine.detection_matrix(faults)
        assert engine._pool is None
        engine.close()


class TestParentInterrupt:
    def test_keyboard_interrupt_leaves_no_orphans(self, circuit, faults,
                                                  monkeypatch, census):
        """^C while shards are in flight: pool torn down, KI propagates."""
        engine = _loaded_engine(circuit, num_shards=3)
        real_pool = engine._ensure_pool()
        assert multiprocessing.active_children()  # workers are up

        def interrupted_map_async(func, tasks):
            raise KeyboardInterrupt

        monkeypatch.setattr(real_pool, "map_async", interrupted_map_async)
        with pytest.raises(KeyboardInterrupt):
            engine.detection_matrix(faults)
        assert engine._pool is None  # terminated, not merely closed
        engine.close()  # idempotent no-op


class TestLifecycle:
    def test_close_is_idempotent_and_reaps_workers(self, circuit, faults,
                                                   census):
        engine = _loaded_engine(circuit, num_shards=2)
        engine.detection_matrix(faults)
        engine.close()
        engine.close()

    def test_garbage_collection_reaps_workers(self, circuit, faults,
                                              census):
        engine = _loaded_engine(circuit, num_shards=2)
        engine.detection_matrix(faults)
        del engine
        gc.collect()

    def test_context_manager_reaps_workers(self, circuit, faults, census):
        with _loaded_engine(circuit, num_shards=2) as engine:
            engine.detection_matrix(faults)

    def test_pool_survives_reloads_and_both_models(self, circuit, faults,
                                                   census):
        """One pool serves many blocks: loads only bump the generation."""
        engine = _loaded_engine(circuit, num_shards=2)
        first = engine.detection_matrix(faults)
        pool = engine._pool
        engine.load(PatternSet.random(circuit.num_inputs, 64, seed=9))
        again = engine.detection_matrix(faults)
        assert engine._pool is pool  # same workers, new generation
        assert first == again
        engine.close()
