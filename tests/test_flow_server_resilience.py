"""Resilience behaviour of the flow server: request deadlines,
capacity shedding, chaos in the handler, and cache degradation
mid-flow.

The design under test: a leader's flow runs on a *dedicated* thread
that completes the single-flight entry; the handler (leader or
follower) only waits on the entry under the request budget.  So a 504
never abandons work — the computation continues, stays in the
single-flight table, and serves the client's retry.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.flow.server import FlowServer, start_in_thread
from repro.resilience import ChaosPlan, SiteSpec, chaos_plan, install_plan

from test_flow_server import (
    CountingFlows,
    base_url,
    get_json,
    get_text,
    parse_sse,
    post_run,
    sample_value,
    tiny_config,
)


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    previous = install_plan(None)
    yield
    install_plan(previous)


@pytest.fixture
def server_factory(tmp_path):
    started = []

    def start(**kwargs) -> FlowServer:
        kwargs.setdefault("cache", tmp_path / "cache")
        server = FlowServer(("127.0.0.1", 0), **kwargs)
        start_in_thread(server)
        started.append(server)
        return server

    yield start
    for server in started:
        server.shutdown()
        server.server_close()


def http_error_of(callable_):
    """(status, headers, error document) of a failing request."""
    with pytest.raises(urllib.error.HTTPError) as info:
        callable_()
    return (info.value.code, info.value.headers,
            json.loads(info.value.read()))


class _Gate:
    """Blocks the flow's run() until released; signals entry."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        self.entered.set()
        assert self.release.wait(timeout=30)


def _wait(predicate, timeout=10.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(message)
        time.sleep(0.005)


class TestRequestDeadline:
    def test_deadline_504_with_retry_after_and_partial(
            self, tmp_path, server_factory):
        gate = _Gate()
        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting,
                                request_timeout=0.2)
        config = tiny_config()
        status, headers, doc = http_error_of(
            lambda: post_run(server, config))
        assert status == 504
        assert headers["Retry-After"] == "1"
        assert "request deadline of 0.2s exceeded" in doc["error"]
        assert doc["partial"]["stages_completed"] == 0
        assert doc["partial"]["stages"] == []

        # The computation was handed off, not abandoned: releasing the
        # gate lets it finish, and the client's retry answers from the
        # table well inside the same deadline.
        gate.release.set()
        _wait(lambda: counting.runs == 1
              and server.inflight.memo_state()["entries"] == 1,
              message="handed-off computation never landed in the table")
        status, doc = post_run(server, config)
        assert status == 200
        assert doc["source"] == "cache"
        assert doc["result"]["schema"] == "repro.flow/v1"

    def test_streamed_deadline_emits_error_event(self, tmp_path,
                                                 server_factory):
        gate = _Gate()
        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting,
                                request_timeout=0.2)
        request = urllib.request.Request(
            base_url(server) + "/run?stream=1",
            data=json.dumps(tiny_config().to_dict()).encode(),
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200  # SSE: errors ride the body
                events = parse_sse(response.read().decode())
        finally:
            gate.release.set()
        kinds = [kind for kind, _ in events]
        assert kinds[-1] == "error"
        payload = events[-1][1]
        assert payload["status"] == 504
        assert payload["retry_after"] == 1
        assert "partial" in payload
        assert "request deadline" in payload["error"]

    def test_coalesced_follower_times_out_cleanly(self, tmp_path,
                                                  server_factory):
        """The one request deadline bounds followers too: a follower of
        a stuck leader answers 504 with Retry-After and partial
        progress, and its retry is served once the leader finishes."""
        gate = _Gate()
        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting,
                                request_timeout=0.3)
        config = tiny_config()
        coalesced = server.registry.counter(
            "repro_dedupe_coalesced_total").labels()
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                leader = pool.submit(http_error_of,
                                     lambda: post_run(server, config))
                assert gate.entered.wait(timeout=30)
                status, headers, doc = http_error_of(
                    lambda: post_run(server, config))
                assert coalesced.value == 1  # it waited as a follower
                assert status == 504
                assert headers["Retry-After"] == "1"
                assert "request deadline of 0.3s exceeded" in doc["error"]
                assert doc["partial"]["stages_completed"] == 0
                assert leader.result(timeout=60)[0] == 504
        finally:
            gate.release.set()
        _wait(lambda: server.inflight.memo_state()["entries"] == 1,
              message="the leader's computation never landed in the table")
        status, doc = post_run(server, config)
        assert status == 200
        assert doc["source"] == "cache"
        assert counting.runs == 1

    def test_spent_budget_streams_a_504_at_once(self, tmp_path,
                                                server_factory):
        """A streamed follower whose budget has already run out gets its
        504 event at once: the wait is clamped at 0, where a negative
        timeout would make ``SimpleQueue.get`` raise ``ValueError``.  A
        finished run still streams in full under a spent budget."""
        gate = _Gate()
        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting, request_timeout=0.0)
        config = tiny_config()
        coalesced = server.registry.counter(
            "repro_dedupe_coalesced_total").labels()

        def stream():
            request = urllib.request.Request(
                base_url(server) + "/run?stream=1",
                data=json.dumps(config.to_dict()).encode())
            with urllib.request.urlopen(request, timeout=60) as response:
                return parse_sse(response.read().decode())

        try:
            assert http_error_of(lambda: post_run(server, config))[0] == 504
            assert gate.entered.wait(timeout=30)
            events = stream()
            assert coalesced.value == 1  # it waited as a follower
        finally:
            gate.release.set()
        assert [kind for kind, _ in events] == ["error"]
        payload = events[0][1]
        assert payload["status"] == 504
        assert payload["retry_after"] == 1
        assert payload["partial"] == {"stages_completed": 0, "stages": []}

        _wait(lambda: server.inflight.memo_state()["entries"] == 1,
              message="the leader's computation never landed in the table")
        events = stream()
        assert [kind for kind, _ in events] == ["stage"] * 7 + ["result"]
        assert events[-1][1]["source"] == "cache"
        assert counting.runs == 1

    def test_deadline_sheds_are_counted(self, tmp_path, server_factory):
        gate = _Gate()
        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting,
                                request_timeout=0.2)
        try:
            http_error_of(lambda: post_run(server, tiny_config()))
        finally:
            gate.release.set()
        text = get_text(server, "/metrics")[2]
        # The counter lives on the process-global registry (shared
        # across servers in one process), so assert presence + growth.
        assert sample_value(
            text, 'repro_resilience_shed_total{reason="deadline"}') >= 1


class TestCapacityShedding:
    def test_at_capacity_sheds_503_with_retry_after(
            self, tmp_path, server_factory):
        gate = _Gate()
        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting,
                                max_concurrent_runs=1)
        with ThreadPoolExecutor(max_workers=1) as pool:
            first = pool.submit(post_run, server, tiny_config(1))
            assert gate.entered.wait(timeout=30)
            status, headers, doc = http_error_of(
                lambda: post_run(server, tiny_config(2)))
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert "capacity" in doc["error"]
            # Non-run endpoints are not subject to the limiter.
            assert get_json(server, "/healthz")[1]["status"] == "ok"
            gate.release.set()
            status, doc = first.result(timeout=60)
            assert status == 200
        text = get_text(server, "/metrics")[2]
        assert sample_value(
            text, 'repro_resilience_shed_total{reason="capacity"}') >= 1

    def test_timed_out_leader_frees_its_capacity_slot(
            self, tmp_path, server_factory):
        """After a 504 the handler slot frees for new requests, while
        the handed-off computation still counts as active for drain."""
        gate = _Gate()
        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting,
                                request_timeout=0.2,
                                max_concurrent_runs=1)
        try:
            status, __, __d = http_error_of(
                lambda: post_run(server, tiny_config()))
            assert status == 504
            # The handler frees its slot in its finally, after the 504
            # is flushed (drain counts a handler until its response is
            # written), so the client can hold the 504 a hair earlier.
            _wait(lambda: server._handler_runs == 0,
                  message="timed-out handler never freed its slot")
            # The handler exited: admission is open again...
            assert server.enter_run() is None
            server.exit_run()
            # ...but the orphaned computation still holds an active run.
            assert server._active_runs == 1
        finally:
            gate.release.set()
        _wait(lambda: server._active_runs == 0,
              message="handed-off run never released")

    def test_draining_still_wins_over_capacity(self, server_factory):
        server = server_factory(max_concurrent_runs=1)
        server.begin_drain()
        status, headers, doc = http_error_of(
            lambda: post_run(server, tiny_config()))
        assert status == 503
        assert "draining" in doc["error"]


class TestChaosAndDegradation:
    def test_handler_slow_chaos_still_answers(self, server_factory):
        spec = SiteSpec("server.handler.slow", 1.0,
                        params={"seconds": 0.05})
        server = server_factory()
        with chaos_plan(ChaosPlan({"server.handler.slow": spec})):
            status, doc = post_run(server, tiny_config())
        assert status == 200
        assert doc["source"] == "computed"

    def test_handler_slow_chaos_trips_the_deadline(self, server_factory):
        spec = SiteSpec("server.handler.slow", 1.0,
                        params={"seconds": 5.0})
        server = server_factory(request_timeout=0.2)
        with chaos_plan(ChaosPlan({"server.handler.slow": spec})):
            status, headers, doc = http_error_of(
                lambda: post_run(server, tiny_config()))
        assert status == 504
        assert headers["Retry-After"] == "1"

    def test_cache_enospc_mid_flow_still_computes(self, tmp_path,
                                                  server_factory):
        """A full disk mid-flow degrades the cache, never the request."""
        cache_dir = tmp_path / "cache"
        server = server_factory(cache=cache_dir)
        with chaos_plan(ChaosPlan({"cache.write.enospc": 1.0})):
            status, doc = post_run(server, tiny_config())
        assert status == 200
        assert doc["source"] == "computed"
        assert doc["result"]["tests"]["count"] > 0
        assert server.cache.degraded is True
        assert list(cache_dir.rglob("*.json")) == []  # nothing persisted
        # The memo still serves retries, and /stats tells the operator.
        status, doc = post_run(server, tiny_config())
        assert doc["source"] == "cache"
        stats = get_json(server, "/stats")[1]
        assert stats["cache"]["degraded"] is True

    def test_result_carries_resilience_summary(self, server_factory):
        server = server_factory()
        status, doc = post_run(server, tiny_config())
        assert doc["result"]["resilience"] == {
            "degraded": False, "retries": 0, "degradations": 0}


class TestLimitsSurface:
    def test_stats_reports_limits(self, server_factory):
        server = server_factory(request_timeout=5.0, max_concurrent_runs=3)
        stats = get_json(server, "/stats")[1]
        assert stats["limits"] == {
            "request_timeout": 5.0,
            "max_concurrent_runs": 3,
        }

    def test_unbounded_by_default(self, server_factory):
        stats = get_json(server_factory(), "/stats")[1]
        assert stats["limits"] == {
            "request_timeout": None,
            "max_concurrent_runs": None,
        }

    def test_max_concurrent_runs_validated(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(ValueError, match="max_concurrent_runs") as info:
            FlowServer(("127.0.0.1", port), cache=tmp_path / "cache",
                       max_concurrent_runs=0)
        # Checked before binding: the rejected server never opened its
        # socket, though ``info`` keeps the constructor's frame alive.
        assert info.traceback
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))
