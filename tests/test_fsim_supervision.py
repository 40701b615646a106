"""Supervised retry/degrade behaviour of the sharded ``parallel`` backend.

The acceptance scenario of the resilience layer: with
``shard.worker.crash`` or ``shard.worker.hang`` armed at probability
1.0, a sharded query must still return a detection matrix that is
**bit-identical** to the single-core result — via retry (when the chaos
plan caps fires) or via graceful degradation to the inline base engine
(when every attempt fails).  Raw fail-fast error semantics live in
``tests/test_fsim_sharded_robustness.py``.
"""

import multiprocessing

import pytest

from repro.errors import SimulationError
from repro.faults import collapsed_fault_list
from repro.fsim.backend import create_backend
from repro.fsim.sharded import FAULTS_METRIC, ShardedFaultSim
from repro.resilience import ChaosPlan, RetryPolicy, SiteSpec, chaos_plan
from repro.resilience import collecting, install_plan
from repro.resilience.context import DEGRADATIONS_METRIC, RETRIES_METRIC
from repro.sim.patterns import PatternSet
from repro.telemetry import scoped_registry

from helpers import generated_circuit


@pytest.fixture(scope="module")
def circuit():
    return generated_circuit(31, num_inputs=8, num_gates=60, num_outputs=4)


@pytest.fixture(scope="module")
def faults(circuit):
    return collapsed_fault_list(circuit)


@pytest.fixture(scope="module")
def patterns(circuit):
    return PatternSet.random(circuit.num_inputs, 64, seed=5)


@pytest.fixture(scope="module")
def reference(circuit, faults, patterns):
    """The single-core ground truth, as big-ints (stable comparison)."""
    engine = create_backend(circuit, "numpy")
    engine.load(patterns)
    return engine.detection_matrix(faults).to_bigints()


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    """Chaos-smoke CI exports REPRO_CHAOS; these tests install their own
    plans and must start from a clean slate."""
    previous = install_plan(None)
    yield
    install_plan(previous)


@pytest.fixture
def census():
    before = len(multiprocessing.active_children())
    yield
    assert len(multiprocessing.active_children()) == before, \
        "supervised run leaked worker processes"


def _engine(circuit, patterns, policy, num_shards=2):
    engine = ShardedFaultSim(circuit, num_shards=num_shards, min_faults=1,
                             policy=policy)
    engine.load(patterns)
    return engine


class TestDegradation:
    def test_persistent_crash_degrades_bit_identically(
            self, circuit, faults, patterns, reference, census):
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        plan = ChaosPlan({"shard.worker.crash": 1.0})
        with chaos_plan(plan), scoped_registry() as registry, \
                collecting() as events, \
                _engine(circuit, patterns, policy) as engine:
            matrix = engine.detection_matrix(faults)
        assert matrix.to_bigints() == reference
        assert events.summary() == {
            "degraded": True, "retries": 1, "degradations": 1}
        assert registry.counter(RETRIES_METRIC).labels(
            component="fsim.parallel").value == 1
        assert registry.counter(DEGRADATIONS_METRIC).labels(
            component="fsim.parallel").value == 1
        # The degraded inline pass accounts its faults under shard label
        # "degraded" — visibly not the normal sharded path.
        assert registry.counter(FAULTS_METRIC).labels(
            base=engine.base, shard="degraded",
        ).value == len(faults)

    def test_degrade_disabled_raises_after_retries(
            self, circuit, faults, patterns, census):
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0,
                             degrade=False)
        plan = ChaosPlan({"shard.worker.crash": 1.0})
        with chaos_plan(plan), scoped_registry(), \
                _engine(circuit, patterns, policy) as engine:
            with pytest.raises(SimulationError, match="ChaosInjected"):
                engine.detection_matrix(faults)


class TestRetryRecovery:
    def test_fail_once_then_recover(self, circuit, faults, patterns,
                                    reference, census):
        """max_fires=1 crashes attempt 1; attempt 2 runs clean — the
        seeded stream lives in the parent so it survives pool rebuild."""
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.0)
        spec = SiteSpec("shard.worker.crash", 1.0, max_fires=1)
        plan = ChaosPlan({"shard.worker.crash": spec})
        with chaos_plan(plan), scoped_registry() as registry, \
                collecting() as events, \
                _engine(circuit, patterns, policy) as engine:
            matrix = engine.detection_matrix(faults)
        assert matrix.to_bigints() == reference
        assert plan.fires("shard.worker.crash") == 1
        assert events.summary() == {
            "degraded": False, "retries": 1, "degradations": 0}
        # The successful attempt's telemetry merged normally: shard sums
        # equal the fault count (retried work counted exactly once).
        family = registry.counter(FAULTS_METRIC)
        total = sum(
            series.value for series in family.series()
            if dict(series.labels).get("shard", "")
            not in ("inline", "degraded")
        )
        assert total == len(faults)

    def test_hung_worker_hits_the_deadline_then_recovers(
            self, circuit, faults, patterns, reference, census):
        """A 30s hang against a 1s shard deadline: terminate, retry."""
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0,
                             shard_timeout=1.0)
        spec = SiteSpec("shard.worker.hang", 1.0, max_fires=1)
        plan = ChaosPlan({"shard.worker.hang": spec})
        with chaos_plan(plan), scoped_registry(), \
                collecting() as events, \
                _engine(circuit, patterns, policy) as engine:
            matrix = engine.detection_matrix(faults)
        assert matrix.to_bigints() == reference
        assert events.retries == 1 and not events.degraded

    def test_hang_deadline_exhaustion_degrades(self, circuit, faults,
                                               patterns, reference, census):
        policy = RetryPolicy(max_attempts=1, shard_timeout=1.0)
        plan = ChaosPlan({"shard.worker.hang": 1.0})
        with chaos_plan(plan), scoped_registry(), \
                collecting() as events, \
                _engine(circuit, patterns, policy) as engine:
            matrix = engine.detection_matrix(faults)
        assert matrix.to_bigints() == reference
        assert events.degraded

    def test_deadline_error_names_the_budget(self, circuit, faults,
                                             patterns, census):
        policy = RetryPolicy(max_attempts=1, shard_timeout=1.0,
                             degrade=False)
        plan = ChaosPlan({"shard.worker.hang": 1.0})
        with chaos_plan(plan), scoped_registry(), \
                _engine(circuit, patterns, policy) as engine:
            with pytest.raises(SimulationError,
                               match=r"exceeded its 1s deadline"):
                engine.detection_matrix(faults)
        assert engine._pool is None  # hung workers were terminated

    def test_transition_queries_supervised_too(self, circuit, census):
        from repro.faults.transition import transition_fault_list
        from repro.sim.patterns import PatternPairSet
        faults = transition_fault_list(circuit)
        pairs = PatternPairSet.random(circuit.num_inputs, 32, seed=6)
        serial = create_backend(circuit, "numpy")
        serial.load_pairs(pairs)
        reference = serial.transition_detection_matrix(faults).to_bigints()

        policy = RetryPolicy(max_attempts=1, backoff_seconds=0.0)
        plan = ChaosPlan({"shard.worker.crash": 1.0})
        engine = ShardedFaultSim(circuit, num_shards=2, min_faults=1,
                                 policy=policy)
        engine.load_pairs(pairs)
        with chaos_plan(plan), scoped_registry(), \
                collecting() as events, engine:
            matrix = engine.transition_detection_matrix(faults)
        assert matrix.to_bigints() == reference
        assert events.degraded


class TestPolicyPlumbing:
    def test_default_policy_comes_from_env(self, circuit, monkeypatch):
        monkeypatch.setenv("REPRO_FSIM_SHARD_TIMEOUT", "7")
        monkeypatch.setenv("REPRO_FSIM_SHARD_RETRIES", "5")
        engine = ShardedFaultSim(circuit, num_shards=2)
        assert engine.policy.shard_timeout == 7.0
        assert engine.policy.max_attempts == 6
        engine.close()

    def test_inline_small_queries_bypass_supervision(
            self, circuit, faults, patterns, reference, census):
        """Below min_faults no pool exists, so worker chaos cannot bite."""
        plan = ChaosPlan({"shard.worker.crash": 1.0})
        engine = ShardedFaultSim(circuit, num_shards=2,
                                 min_faults=10 ** 6,
                                 policy=RetryPolicy.fail_fast())
        engine.load(patterns)
        with chaos_plan(plan), scoped_registry(), engine:
            matrix = engine.detection_matrix(faults)
        assert matrix.to_bigints() == reference
        assert engine._pool is None
