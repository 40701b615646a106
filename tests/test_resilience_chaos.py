"""The resilience primitives: chaos plans, event recording and retry
policies.

These are pure-logic tests — no subprocess pools, no HTTP.  The
integration of the primitives into the sharded simulator and the flow
server is covered by ``tests/test_fsim_supervision.py`` and
``tests/test_flow_server_resilience.py``.
"""

import threading

import pytest

from repro.resilience import (
    CHAOS_ENV_VAR,
    ChaosConfigError,
    ChaosPlan,
    PolicyConfigError,
    ResilienceContext,
    RetryPolicy,
    SiteSpec,
    active_plan,
    baseline_summary,
    chaos_plan,
    collecting,
    current,
    fire,
    install_plan,
    param,
    record,
)
from repro.resilience.chaos import SITES
from repro.resilience import context as resilience_context
from repro.resilience import supervisor
from repro.telemetry import scoped_registry


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    """Tests must not inherit a plan from the environment (chaos-smoke
    CI runs the suite with REPRO_CHAOS set)."""
    previous = install_plan(None)
    yield
    install_plan(previous)


class TestSpecGrammar:
    def test_single_entry_with_defaults(self):
        plan = ChaosPlan.from_spec("shard.worker.crash:0.5")
        spec = plan.sites()["shard.worker.crash"]
        assert spec.probability == 0.5
        assert spec.max_fires is None
        assert isinstance(spec.seed, int)  # stable per-site default

    def test_full_entry_and_roundtrip(self):
        plan = ChaosPlan.from_spec(
            "cache.write.enospc:1:7:2,shard.worker.hang:0.25:99")
        sites = plan.sites()
        assert sites["cache.write.enospc"].seed == 7
        assert sites["cache.write.enospc"].max_fires == 2
        assert sites["shard.worker.hang"].seed == 99
        # to_spec() parses back to an equivalent plan.
        again = ChaosPlan.from_spec(plan.to_spec())
        assert again.to_spec() == plan.to_spec()

    def test_default_seed_is_stable_per_site(self):
        one = ChaosPlan.from_spec("shard.worker.crash:0.5")
        two = ChaosPlan.from_spec("shard.worker.crash:0.5")
        assert one.sites()["shard.worker.crash"].seed == \
            two.sites()["shard.worker.crash"].seed

    @pytest.mark.parametrize("bad", [
        "shard.worker.crash",              # no probability
        "shard.worker.crash:0.5:1:2:3",    # too many fields
        "shard.worker.crash:high",         # non-float probability
        "shard.worker.crash:0.5:x",        # non-int seed
        "shard.worker.crash:2.0",          # probability out of range
        "no.such.site:1.0",                # unknown site
        "shard.worker.crash:0.5,shard.worker.crash:1.0",  # duplicate
        "   ",                             # arms nothing
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ChaosConfigError):
            ChaosPlan.from_spec(bad)

    def test_error_message_names_env_var_and_known_sites(self):
        with pytest.raises(ChaosConfigError, match=CHAOS_ENV_VAR):
            ChaosPlan.from_spec("shard.worker.crash")
        with pytest.raises(ChaosConfigError, match="shard.worker.crash"):
            SiteSpec("no.such.site", 1.0)


class TestFiring:
    def test_no_plan_never_fires(self):
        assert active_plan() is None
        assert fire("shard.worker.crash") is False
        assert param("shard.worker.hang", "seconds", 30.0) == 30.0

    def test_probability_one_always_fires(self):
        with chaos_plan(ChaosPlan({"shard.worker.crash": 1.0})), \
                scoped_registry():
            assert all(fire("shard.worker.crash") for _ in range(10))

    def test_probability_zero_never_fires(self):
        with chaos_plan(ChaosPlan({"shard.worker.crash": 0.0})):
            assert not any(fire("shard.worker.crash") for _ in range(10))

    def test_unarmed_site_does_not_fire(self):
        with chaos_plan(ChaosPlan({"shard.worker.crash": 1.0})):
            assert fire("cache.write.enospc") is False

    def test_unknown_site_raises_even_mid_plan(self):
        with chaos_plan(ChaosPlan({"shard.worker.crash": 1.0})):
            with pytest.raises(ChaosConfigError, match="no.such.site"):
                fire("no.such.site")

    def test_seeded_stream_is_deterministic(self):
        def draws(seed):
            spec = SiteSpec("shard.worker.crash", 0.5, seed=seed)
            with chaos_plan(ChaosPlan({"shard.worker.crash": spec})), \
                    scoped_registry():
                return [fire("shard.worker.crash") for _ in range(64)]

        assert draws(1234) == draws(1234)
        assert draws(1234) != draws(4321)  # astronomically unlikely equal
        assert any(draws(1234)) and not all(draws(1234))

    def test_max_fires_caps_injections(self):
        spec = SiteSpec("shard.worker.crash", 1.0, max_fires=2)
        plan = ChaosPlan({"shard.worker.crash": spec})
        with chaos_plan(plan), scoped_registry():
            results = [fire("shard.worker.crash") for _ in range(5)]
        assert results == [True, True, False, False, False]
        assert plan.fires("shard.worker.crash") == 2

    def test_fire_counts_injections_metric(self):
        plan = ChaosPlan({"cache.write.enospc": 1.0})
        with chaos_plan(plan), scoped_registry() as registry:
            fire("cache.write.enospc")
            fire("cache.write.enospc")
        counter = registry.counter("repro_resilience_injections_total")
        assert counter.labels(site="cache.write.enospc").value == 2

    def test_params_reach_armed_sites(self):
        spec = SiteSpec("shard.worker.hang", 1.0,
                        params={"seconds": 0.01})
        with chaos_plan(ChaosPlan({"shard.worker.hang": spec})):
            assert param("shard.worker.hang", "seconds", 30.0) == 0.01
            assert param("shard.worker.crash", "seconds", 5.0) == 5.0

    def test_install_plan_returns_previous(self):
        plan = ChaosPlan({"shard.worker.crash": 1.0})
        assert install_plan(plan) is None
        assert active_plan() is plan
        assert install_plan(None) is plan

    def test_every_documented_site_exists(self):
        for site in ("shard.worker.crash", "shard.worker.hang",
                     "cache.write.enospc", "cache.read.corrupt",
                     "server.handler.slow"):
            assert site in SITES


class TestRecordAndContext:
    def test_record_reaches_innermost_context_and_counters(self):
        with scoped_registry() as registry, collecting() as events:
            record("retry", "fsim.parallel", attempt=1)
            record("degradation", "fsim.parallel")
        assert events.summary() == {
            "degraded": True, "retries": 1, "degradations": 1}
        assert registry.counter(
            resilience_context.RETRIES_METRIC,
        ).labels(component="fsim.parallel").value == 1
        assert registry.counter(
            resilience_context.DEGRADATIONS_METRIC,
        ).labels(component="fsim.parallel").value == 1

    def test_shed_and_timeout_share_the_shed_counter(self):
        with scoped_registry() as registry:
            record("shed", "flow.server", reason="capacity")
            record("timeout", "flow.server", reason="deadline")
        counter = registry.counter(resilience_context.SHED_METRIC)
        assert counter.labels(reason="capacity").value == 1
        assert counter.labels(reason="deadline").value == 1

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="explosion"):
            record("explosion", "fsim.parallel")

    def test_contexts_nest(self):
        with scoped_registry(), collecting() as outer:
            with collecting() as inner:
                record("retry", "fsim.parallel")
            record("degradation", "fsim.parallel")
        assert inner.retries == 1 and inner.degradations == 0
        assert outer.degradations == 1 and outer.retries == 0

    def test_record_without_context_is_fine(self):
        assert current() is None
        with scoped_registry():
            record("retry", "fsim.parallel")  # counters only, no crash

    def test_contexts_are_thread_local(self):
        seen = {}

        def worker():
            seen["context"] = current()

        with collecting():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["context"] is None

    def test_baseline_summary_shape(self):
        assert baseline_summary() == {
            "degraded": False, "retries": 0, "degradations": 0}
        assert ResilienceContext().summary() == baseline_summary()


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.shard_timeout == 300.0
        assert policy.degrade is True

    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)

    def test_fail_fast_shape(self):
        policy = RetryPolicy.fail_fast()
        assert policy.max_attempts == 1
        assert policy.shard_timeout is None
        assert policy.degrade is False

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_seconds": -1.0},
        {"backoff_factor": 0.5},
        {"shard_timeout": 0.0},
        {"shard_timeout": -3.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(PolicyConfigError):
            RetryPolicy(**kwargs)

    def test_from_env_defaults(self, monkeypatch):
        for var in (supervisor.SHARD_TIMEOUT_ENV_VAR,
                    supervisor.SHARD_RETRIES_ENV_VAR,
                    supervisor.SHARD_BACKOFF_ENV_VAR):
            monkeypatch.delenv(var, raising=False)
        assert RetryPolicy.from_env() == RetryPolicy()

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv(supervisor.SHARD_TIMEOUT_ENV_VAR, "1.5")
        monkeypatch.setenv(supervisor.SHARD_RETRIES_ENV_VAR, "0")
        monkeypatch.setenv(supervisor.SHARD_BACKOFF_ENV_VAR, "0.2")
        policy = RetryPolicy.from_env()
        assert policy.shard_timeout == 1.5
        assert policy.max_attempts == 1
        assert policy.backoff_seconds == 0.2

    @pytest.mark.parametrize("raw", ["none", "off", "0", "-1"])
    def test_from_env_timeout_disabled(self, monkeypatch, raw):
        monkeypatch.setenv(supervisor.SHARD_TIMEOUT_ENV_VAR, raw)
        assert RetryPolicy.from_env().shard_timeout is None

    @pytest.mark.parametrize("var,raw", [
        (supervisor.SHARD_TIMEOUT_ENV_VAR, "soon"),
        (supervisor.SHARD_RETRIES_ENV_VAR, "2.5"),
        (supervisor.SHARD_RETRIES_ENV_VAR, "-1"),
        (supervisor.SHARD_BACKOFF_ENV_VAR, "-0.1"),
    ])
    def test_from_env_bad_values_raise(self, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(PolicyConfigError, match=var):
            RetryPolicy.from_env()
