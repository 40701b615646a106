"""The flow server: request dedupe, HTTP scenarios, streaming, drain.

Concurrency suite for :mod:`repro.flow.server`:

* N threads POSTing one identical config execute the underlying flow
  exactly once (instrumented with a counting ``flow_factory`` whose
  leader blocks until every duplicate request has coalesced);
* distinct configs proceed in parallel (their executions overlap in
  time, proven with a barrier inside the counting hook);
* the end-to-end HTTP lifecycle: cold → warm → malformed (400) →
  oversized (413) → drain (503), plus streaming, ``/stats`` and
  ``/metrics``.

Slow full-lifecycle scenarios carry the ``server`` marker
(``-m 'not server'`` deselects them).
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CircuitStructureError
from repro.flow import CircuitSpec, Flow, FlowConfig, USpec
from repro.flow.dedupe import (
    FINISHED,
    FOLLOWER,
    LEADER,
    Computation,
    InflightTable,
)
from repro.flow.server import FlowServer, start_in_thread


def tiny_config(gen_seed: int = 1) -> FlowConfig:
    return FlowConfig(
        circuit=CircuitSpec(kind="generator", name=f"srv{gen_seed}",
                            num_inputs=8, num_gates=40, num_outputs=4,
                            gen_seed=gen_seed),
        u=USpec(max_vectors=256),
        seed=3,
    )


@pytest.fixture
def server_factory(tmp_path):
    """Start FlowServers on ephemeral ports; all stopped at teardown."""
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


def base_url(server: FlowServer) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def post_run(server: FlowServer, config: FlowConfig, query: str = ""):
    request = urllib.request.Request(
        base_url(server) + "/run" + query,
        data=json.dumps(config.to_dict()).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def get_json(server: FlowServer, path: str):
    with urllib.request.urlopen(base_url(server) + path,
                                timeout=60) as response:
        return response.status, json.loads(response.read())


def error_of(callable_):
    """Run a request expected to fail; returns (status, error document)."""
    with pytest.raises(urllib.error.HTTPError) as info:
        callable_()
    return info.value.code, json.loads(info.value.read())


def parse_sse(text: str):
    """[(event, payload), ...] from an SSE body."""
    events = []
    for block in text.strip().split("\n\n"):
        kind, data = None, None
        for line in block.splitlines():
            if line.startswith("event: "):
                kind = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        if kind is not None:
            events.append((kind, data))
    return events


class CountingFlows:
    """A ``flow_factory`` that counts real executions.

    Only flows handed an observer are *run* candidates (the server's
    key-probe flows pass ``observer=None`` and never execute).  The
    optional ``gate`` callback runs at the top of each execution — used
    to hold the leader until duplicates have coalesced, or to prove two
    executions overlap.
    """

    def __init__(self, cache, gate=None):
        self.cache = cache
        self.gate = gate
        self.runs = 0
        self._lock = threading.Lock()
        counter = self

        class CountingFlow(Flow):
            """Test double: Flow whose run() reports to the counter."""

            def run(self, order=None):
                with counter._lock:
                    counter.runs += 1
                if counter.gate is not None:
                    counter.gate()
                return super().run(order)

        self._flow_type = CountingFlow

    def __call__(self, config, observer):
        return self._flow_type(config, cache=self.cache, observer=observer)


class TestConcurrentDedupe:
    N = 8

    def test_identical_requests_execute_exactly_once(self, tmp_path,
                                                     server_factory):
        """The headline invariant: N equal concurrent POSTs, one run."""
        holder = {}

        def gate():
            # Leader: wait until every other request has coalesced, so
            # none of them can miss the in-flight entry and recompute.
            deadline = time.monotonic() + 10
            coalesced = holder["server"].registry.counter(
                "repro_dedupe_coalesced_total").labels()
            while coalesced.value < self.N - 1:
                if time.monotonic() > deadline:
                    raise AssertionError("duplicates never coalesced")
                time.sleep(0.005)

        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting)
        holder["server"] = server
        config = tiny_config()
        barrier = threading.Barrier(self.N)

        def request(_):
            barrier.wait()
            return post_run(server, config)

        with ThreadPoolExecutor(max_workers=self.N) as pool:
            responses = list(pool.map(request, range(self.N)))

        assert counting.runs == 1
        assert all(status == 200 for status, _ in responses)
        documents = [doc for _, doc in responses]
        assert len({doc["key"] for doc in documents}) == 1
        sources = sorted(doc["source"] for doc in documents)
        assert sources.count("computed") == 1
        assert sources.count("inflight") == self.N - 1
        for doc in documents:
            assert doc["result"]["schema"] == "repro.flow/v1"
            assert doc["result"]["tests"]["count"] > 0
        assert len({json.dumps(doc["result"], sort_keys=True)
                    for doc in documents}) == 1
        text = get_text(server, "/metrics")[2]
        assert sample_value(text, "repro_dedupe_coalesced_total") == \
            self.N - 1
        assert sample_value(
            text, 'repro_http_run_served_total{source="inflight"}') == \
            self.N - 1

    def test_distinct_configs_proceed_in_parallel(self, tmp_path,
                                                  server_factory):
        """Two different configs must overlap, not serialize."""
        overlap = threading.Barrier(2)

        def gate():
            # Both executions must reach this point at the same time —
            # if the server serialized them, this times out.
            overlap.wait(timeout=30)

        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting)
        configs = [tiny_config(gen_seed=1), tiny_config(gen_seed=2)]

        with ThreadPoolExecutor(max_workers=2) as pool:
            responses = list(pool.map(
                lambda config: post_run(server, config), configs
            ))

        assert counting.runs == 2
        assert [doc["source"] for _, doc in responses] == \
            ["computed", "computed"]
        assert responses[0][1]["key"] != responses[1][1]["key"]

    def test_sequential_identical_requests_hit_cache(self, server_factory):
        server = server_factory()
        config = tiny_config()
        assert post_run(server, config)[1]["source"] == "computed"
        assert post_run(server, config)[1]["source"] == "cache"

    def test_backend_choice_shares_one_key(self, server_factory):
        """Backends are bit-identical: they dedupe onto one computation."""
        server = server_factory()
        config = tiny_config()
        from repro.flow import BackendSpec

        first = post_run(server, config)[1]
        second = post_run(
            server, config.replace(backend=BackendSpec(fsim="numpy"))
        )[1]
        assert first["key"] == second["key"]
        assert second["source"] == "cache"
        assert first["config_fingerprint"] != second["config_fingerprint"]


class TestRequestValidation:
    def _post_raw(self, server, body: bytes, headers=None):
        request = urllib.request.Request(
            base_url(server) + "/run", data=body, headers=headers or {}
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())

    def test_malformed_json_400(self, server_factory):
        server = server_factory()
        status, doc = error_of(lambda: self._post_raw(server, b"{oops"))
        assert status == 400
        assert "not valid JSON" in doc["error"]

    def test_invalid_config_400(self, server_factory):
        server = server_factory()
        status, doc = error_of(
            lambda: self._post_raw(server, b'{"typo_section": {}}')
        )
        assert status == 400
        assert "typo_section" in doc["error"]

    @pytest.mark.parametrize("document, field", [
        ({"u": {"max_vectors": "100"}}, "u.max_vectors"),
        ({"circuit": {"kind": "generator", "name": "g", "num_inputs": "4",
                      "num_gates": 10, "num_outputs": 2}},
         "circuit.num_inputs"),
        ({"seed": True}, "seed"),
    ])
    def test_mistyped_config_field_400(self, server_factory, document,
                                       field):
        server = server_factory()
        status, doc = error_of(lambda: self._post_raw(
            server, json.dumps(document).encode()))
        assert status == 400
        assert f"{field} must be an integer" in doc["error"]

    @pytest.mark.parametrize("circuit, message", [
        ({"kind": "generator", "name": "g", "num_inputs": 0,
          "num_gates": 10, "num_outputs": 2},
         "need at least 2 primary inputs"),
        ({"kind": "generator", "name": "g", "num_inputs": 4,
          "num_gates": 10, "num_outputs": 2, "hardness": 7.0},
         "hardness must be in [0, 0.5]"),
        ({"kind": "suite", "name": "nope"}, "unknown suite circuit 'nope'"),
    ])
    def test_circuit_the_flow_would_refuse_400(self, tmp_path,
                                               server_factory, circuit,
                                               message):
        """Both routes refuse such a circuit before any flow runs."""
        counting = CountingFlows(tmp_path / "cache")
        server = server_factory(flow_factory=counting)
        config = {"circuit": circuit}
        for post in (
                lambda: self._post_raw(server, json.dumps(config).encode()),
                lambda: post_diagnose(server, {"config": config,
                                               "devices": []})):
            status, doc = error_of(post)
            assert status == 400
            assert f"invalid flow config: circuit: {message}" in doc["error"]
        assert counting.runs == 0

    def test_flow_failing_at_run_time_is_500_on_both_routes(
            self, tmp_path, server_factory):
        class BrokenCircuitFlow(Flow):
            """Flow whose circuit stage fails once the flow runs."""

            def circuit(self):
                raise CircuitStructureError("circuit stage failed")

        server = server_factory(
            flow_factory=lambda config, observer: BrokenCircuitFlow(
                config, cache=tmp_path / "cache", observer=observer))
        for post in (
                lambda: post_run(server, tiny_config()),
                lambda: post_diagnose(server, {
                    "config": tiny_config().to_dict(), "devices": []})):
            status, doc = error_of(post)
            assert status == 500
            assert doc["error"] == \
                "flow execution failed: circuit stage failed"

    def test_bench_config_refused_by_default(self, server_factory):
        server = server_factory()
        config = FlowConfig(circuit=CircuitSpec(
            kind="bench", name="x", path="/etc/hostname"))
        status, doc = error_of(lambda: post_run(server, config))
        assert status == 400
        assert "bench" in doc["error"]

    def test_oversized_body_413(self, server_factory):
        server = server_factory(max_body=512)
        body = json.dumps(dict(tiny_config().to_dict(),
                               version=1)).encode() + b" " * 600
        status, doc = error_of(lambda: self._post_raw(server, body))
        assert status == 413
        assert "exceeds limit" in doc["error"]

    def test_unknown_path_404(self, server_factory):
        server = server_factory()
        status, _ = error_of(lambda: get_json(server, "/nope"))
        assert status == 404
        status, _ = error_of(lambda: post_to(server, "/other"))
        assert status == 404

    def test_negative_content_length_400(self, server_factory):
        """Content-Length: -1 must be rejected, not passed to
        rfile.read(-1) (which would stream an unbounded body)."""
        server = server_factory()
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /run HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: -1\r\n\r\n")
            sock.settimeout(10)
            buf = b""
            while b"malformed Content-Length" not in buf:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buf += chunk
        assert buf.startswith(b"HTTP/1.1 400")
        assert b"malformed Content-Length" in buf


def post_to(server, path: str):
    request = urllib.request.Request(
        base_url(server) + path, data=b"{}")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


class _BrokenSummary:
    """A FlowResult stand-in whose summary() raises mid-response."""

    def __init__(self, stages):
        self.stages = stages

    def summary(self):
        raise RuntimeError("document build failed")


class TestLeaderCompletion:
    """A leader must retire its inflight entry on *every* exit path —
    a leaked entry wedges the key: all later identical requests would
    lease it as followers and block forever."""

    def test_failure_after_run_does_not_wedge_key(self, tmp_path,
                                                  server_factory):
        poison = {"remaining": 1}

        class PoisonedFlow(Flow):
            """Flow whose first result blows up during summary()."""

            def run(self, order=None):
                result = super().run(order)
                if poison["remaining"]:
                    poison["remaining"] -= 1
                    return _BrokenSummary(result.stages)
                return result

        server = server_factory(
            flow_factory=lambda config, observer: PoisonedFlow(
                config, cache=tmp_path / "cache", observer=observer))
        config = tiny_config()

        status, doc = error_of(lambda: post_run(server, config))
        assert status == 500
        assert "document build failed" in doc["error"]
        # The dead computation was retired, not leaked...
        assert server.registry.gauge(
            "repro_dedupe_inflight_keys").labels().value == 0
        # ...so the next identical request leads fresh and succeeds.
        status, doc = post_run(server, config)
        assert status == 200
        assert doc["result"]["schema"] == "repro.flow/v1"

    def test_publish_after_finish_is_dropped(self):
        """DONE is always the last item a subscriber sees; a late
        publish racing finish() must not land behind the sentinel."""
        computation = Computation("k")
        subscription = computation.subscribe()
        computation.publish(("stage", {"n": 1}))
        computation.finish({"ok": True})
        computation.publish(("stage", {"n": 2}))  # late: dropped
        assert computation.next_event(subscription, timeout=5) == \
            ("stage", {"n": 1})
        assert computation.next_event(subscription, timeout=5) is None
        assert subscription.empty()
        assert computation.outcome() == {"ok": True}


class TestInflightTable:
    """One table of computations: a lease leads, follows, or reads a
    finished computation the table kept."""

    @staticmethod
    def counts(table):
        """(leaders, coalesced followers) counted so far."""
        return (
            table.registry.counter("repro_dedupe_leaders_total")
            .labels().value,
            table.registry.counter("repro_dedupe_coalesced_total")
            .labels().value)

    def test_a_finished_entry_is_read_not_led_or_followed(self):
        table = InflightTable(memo_size=2)
        entry, role = table.lease("a")
        assert role == LEADER
        assert table.lease("a") == (entry, FOLLOWER)
        table.complete(entry, {"doc": 1})
        assert self.counts(table) == (1, 1)
        assert table.lease("a") == (entry, FINISHED)
        assert table.lease("a") == (entry, FINISHED)
        assert self.counts(table) == (1, 1)
        assert table.registry.gauge(
            "repro_dedupe_inflight_keys").labels().value == 0

    def test_a_read_moves_the_entry_to_the_recent_end(self):
        table = InflightTable(memo_size=2)
        for key in ("a", "b"):
            table.complete(table.lease(key)[0], key)
        assert table.lease("a")[1] == FINISHED  # "b" is least recent now
        table.complete(table.lease("c")[0], "c")
        assert table.lease("a")[1] == FINISHED
        assert table.lease("b")[1] == LEADER

    def test_eviction_never_drops_an_inflight_entry(self):
        table = InflightTable(memo_size=1)
        running, __ = table.lease("running")
        for key in ("a", "b", "c"):
            table.complete(table.lease(key)[0], key)
        assert table.memo_state() == {"entries": 1, "size": 1}
        assert table.lease("running") == (running, FOLLOWER)
        table.complete(running, "done")
        assert table.lease("running") == (running, FINISHED)
        assert table.lease("c")[1] == LEADER

    def test_failures_and_a_zero_memo_keep_nothing(self):
        table = InflightTable(memo_size=4)
        failed, __ = table.lease("a")
        table.complete(failed, exception=RuntimeError("boom"))
        assert table.memo_state() == {"entries": 0, "size": 4}
        fresh, role = table.lease("a")
        assert role == LEADER and fresh is not failed

        table = InflightTable(memo_size=0)
        table.complete(table.lease("a")[0], "doc")
        assert table.memo_state() == {"entries": 0, "size": 0}
        assert table.lease("a")[1] == LEADER

    def test_subscribing_to_a_finished_entry_replays_then_ends(self):
        table = InflightTable(memo_size=1)
        entry, __ = table.lease("a")
        events = [("stage", {"stage": "circuit"}),
                  ("stage", {"stage": "faults"})]
        for event in events:
            entry.publish(event)
        table.complete(entry, "doc")
        kept, __ = table.lease("a")
        subscription = kept.subscribe()
        assert [kept.next_event(subscription, timeout=0)
                for __ in range(3)] == events + [None]


class TestStreaming:
    def _stream(self, server, config, query="?stream=1"):
        request = urllib.request.Request(
            base_url(server) + "/run" + query,
            data=json.dumps(config.to_dict()).encode(),
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            return parse_sse(response.read().decode())

    def test_cold_stream_emits_stages_then_result(self, server_factory):
        server = server_factory()
        events = self._stream(server, tiny_config())
        kinds = [kind for kind, _ in events]
        assert kinds[-1] == "result"
        stage_names = [payload["stage"] for kind, payload in events
                       if kind == "stage"]
        assert stage_names == ["circuit", "faults", "u", "adi",
                               "order:0dynm", "testgen:0dynm", "curve:0dynm"]
        result = events[-1][1]
        assert result["source"] == "computed"
        assert result["result"]["schema"] == "repro.flow/v1"

    def test_warm_stream_replays_from_memo(self, server_factory):
        server = server_factory()
        post_run(server, tiny_config())
        events = self._stream(server, tiny_config())
        assert events[-1][1]["source"] == "cache"
        assert [kind for kind, _ in events].count("stage") == 7


@pytest.mark.server
class TestEndToEndLifecycle:
    """The full cold → warm → errors → drain request lifecycle."""

    def test_lifecycle(self, tmp_path, server_factory):
        cache_dir = tmp_path / "cache"
        server = server_factory(cache=cache_dir, max_body=4096)
        config = tiny_config()

        # Cold: everything computed.
        status, cold = post_run(server, config)
        assert status == 200 and cold["source"] == "computed"

        # Warm: same process answers from the result memo.
        status, warm = post_run(server, config)
        assert status == 200 and warm["source"] == "cache"
        assert warm["result"]["tests"] == cold["result"]["tests"]

        # Warm across a restart: a fresh server (empty memo) still
        # serves from the on-disk artifact cache without computing.
        restarted = server_factory(cache=cache_dir, max_body=4096)
        status, rewarm = post_run(restarted, config)
        assert status == 200 and rewarm["source"] == "cache"
        assert rewarm["key"] == cold["key"]

        # Invalid config → 400.
        request = urllib.request.Request(
            base_url(restarted) + "/run", data=b'{"u": {"max_vectors": 0}}')
        status, doc = error_of(
            lambda: urllib.request.urlopen(request, timeout=60))
        assert status == 400

        # Oversized body → 413.
        big = json.dumps(config.to_dict()).encode() + b" " * 5000
        request = urllib.request.Request(
            base_url(restarted) + "/run", data=big)
        status, doc = error_of(
            lambda: urllib.request.urlopen(request, timeout=60))
        assert status == 413

        # /metrics counts the traffic; /stats shows the cache on disk.
        text = get_text(restarted, "/metrics")[2]
        assert sample_value(
            text, 'repro_http_run_served_total{source="cache"}') >= 1
        assert get_json(restarted, "/stats")[1]["cache"]["files"] > 0

    def test_shutdown_drain(self, tmp_path, server_factory):
        """Draining: in-flight runs finish; new runs get 503."""
        release = threading.Event()
        entered = threading.Event()

        def gate():
            entered.set()
            assert release.wait(timeout=30)

        counting = CountingFlows(tmp_path / "cache", gate=gate)
        server = server_factory(flow_factory=counting)
        config = tiny_config()

        with ThreadPoolExecutor(max_workers=1) as pool:
            inflight = pool.submit(post_run, server, config)
            assert entered.wait(timeout=30)
            server.begin_drain()

            # New work refused while draining.
            status, doc = error_of(lambda: post_run(server, tiny_config(9)))
            assert status == 503
            assert get_json(server, "/healthz")[1]["status"] == "draining"

            # The in-flight run still completes.
            release.set()
            status, doc = inflight.result(timeout=30)
            assert status == 200 and doc["source"] == "computed"

        assert server.drain(timeout=10) is True

    def test_healthz_ok(self, server_factory):
        server = server_factory()
        assert get_json(server, "/healthz")[1]["status"] == "ok"


class TestKeepAlive:
    def test_back_to_back_requests_do_not_stall(self, server_factory):
        """20 requests sent back to back on one keep-alive connection.

        A response is a header write and a body write.  With Nagle's
        algorithm on, the body waits for the client's delayed ACK of the
        headers, about 40 ms per response (0.88 s for these 20); with
        ``TCP_NODELAY`` they take a few milliseconds in all.
        """
        server = server_factory()
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert json.loads(response.read())["status"] == "ok"
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"


    @pytest.mark.parametrize("path, body, headers, status, closes", [
        ("/nope", b'{"a": 1}', {}, 404, False),
        ("/run", b'{"a": 1}', {"Content-Length": "abc"}, 400, True),
        ("/run", b'{"a": 1}', {"Content-Length": "-1"}, 400, True),
        # No Content-Length: http.client sends the body chunked.
        ("/run", iter([b'{"a": 1}']), {}, 411, True),
        ("/run", b"{}" + b" " * 100, {}, 413, True),
    ], ids=["unknown-path", "malformed-length", "negative-length",
            "chunked-411", "oversized-413"])
    def test_refused_body_leaves_the_connection_usable(
            self, server_factory, path, body, headers, status, closes):
        """The envelope reads exactly the declared body, or answers
        ``Connection: close``, so the next request on the connection
        reaches the server intact."""
        server = server_factory(max_body=64)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("POST", path, body=body, headers=headers)
            response = connection.getresponse()
            assert json.loads(response.read())["status"] == status
            assert response.status == status
            assert response.getheader("Connection") == \
                ("close" if closes else None)
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


def get_text(server: FlowServer, path: str):
    with urllib.request.urlopen(base_url(server) + path,
                                timeout=60) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


def settle(server: FlowServer, timeout: float = 5.0) -> None:
    """Wait for handler threads to finish their accounting.

    A response reaches the client a hair before the handler's
    ``finally`` decrements the in-flight gauge and emits the access
    log; tests that assert on settled state wait that hair out.
    """
    deadline = time.monotonic() + timeout
    while server._inflight_gauge.value != 0:
        if time.monotonic() > deadline:
            raise AssertionError("in-flight gauge never settled")
        time.sleep(0.005)


def sample_value(text: str, prefix: str) -> float:
    """The value of the one exposition sample starting with ``prefix``."""
    matches = [line for line in text.splitlines()
               if line.startswith(prefix)]
    assert len(matches) == 1, f"{prefix!r} matched {matches!r}"
    return float(matches[0].rsplit(" ", 1)[1])


class TestMetricsEndpoint:
    def test_metrics_parses_with_no_duplicate_series(self, server_factory):
        from test_telemetry import parse_prometheus

        server = server_factory()
        post_run(server, tiny_config())
        post_run(server, tiny_config())
        status, content_type, text = get_text(server, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        samples = parse_prometheus(text)
        keys = [line.rsplit(" ", 1)[0] for line in samples]
        assert len(keys) == len(set(keys))

    def test_metrics_covers_requests_cache_and_stages(self, server_factory):
        server = server_factory()
        config = tiny_config()
        post_run(server, config)   # cold: computed
        post_run(server, config)   # warm: memo hit
        settle(server)
        text = get_text(server, "/metrics")[2]
        assert sample_value(
            text, 'repro_http_requests_total{route="/run"}') == 2
        assert sample_value(
            text, 'repro_http_run_served_total{source="computed"}') == 1
        assert sample_value(
            text, 'repro_http_run_served_total{source="cache"}') == 1
        assert sample_value(
            text, 'repro_http_request_seconds_count'
                  '{route="/run",source="computed"}') == 1
        assert sample_value(text, "repro_http_inflight_requests") == 0
        assert sample_value(
            text, 'repro_cache_puts_total{outcome="written"}') > 0
        assert sample_value(text, "repro_cache_disk_bytes") > 0
        # Flow stage spans from the handler thread reach the process
        # registry the endpoint renders.
        assert "repro_flow_stage_seconds_bucket" in text

    def test_stats_carries_no_counters(self, server_factory):
        """``/stats`` holds state only; every number its removed counter
        keys used to alias is a ``/metrics`` series."""
        server = server_factory(memo_size=0)  # the rerun reads the cache
        config = tiny_config()
        post_run(server, config)
        post_run(server, config)
        error_of(lambda: get_json(server, "/nope"))
        settle(server)
        stats = get_json(server, "/stats")[1]
        assert stats["metrics_endpoint"] == "/metrics"
        assert set(stats) == {"schema", "memo", "active_runs", "draining",
                              "limits", "metrics_endpoint", "cache"}
        assert set(stats["cache"]) == {"root", "files", "bytes",
                                       "degraded"}
        text = get_text(server, "/metrics")[2]
        for prefix, value in [
                ('repro_http_requests_total{route="/run"}', 2),
                ('repro_http_run_served_total{source="computed"}', 1),
                ('repro_http_run_served_total{source="cache"}', 1),
                ('repro_http_errors_total{status="404"}', 1),
                ("repro_dedupe_coalesced_total", 0),
                ("repro_dedupe_inflight_keys", 0)]:
            assert sample_value(text, prefix) == value, prefix
        misses = sample_value(
            text, 'repro_cache_requests_total{result="miss"}')
        assert misses > 0
        assert sample_value(
            text, 'repro_cache_requests_total{result="hit"}') == misses
        assert sample_value(
            text, 'repro_cache_puts_total{outcome="written"}') == misses

    def test_metrics_scrapes_are_stable_on_an_idle_server(
            self, server_factory):
        server = server_factory()
        config = tiny_config()
        post_run(server, config)
        post_run(server, config)
        settle(server)
        first = get_text(server, "/metrics")[2]
        second = get_text(server, "/metrics")[2]
        # A scrape records nothing, so back-to-back scrapes of an idle
        # warm server are byte-identical.
        assert first == second

    def test_errors_are_labelled_by_status(self, server_factory):
        server = server_factory()
        error_of(lambda: get_json(server, "/nope"))
        text = get_text(server, "/metrics")[2]
        assert sample_value(
            text, 'repro_http_errors_total{status="404"}') == 1
        assert sample_value(
            text, 'repro_http_requests_total{route="other"}') == 1


class TestAccessLog:
    def test_verbose_server_emits_structured_access_lines(
            self, server_factory, monkeypatch):
        from repro.telemetry import set_sink

        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        lines = []
        old_sink = set_sink(lines.append)
        try:
            server = server_factory(quiet=False)
            config = tiny_config()
            post_run(server, config)
            get_json(server, "/stats")
            # The access line lands just after the response reaches the
            # client; wait for both routes' lines before detaching.
            deadline = time.monotonic() + 5
            while not all(f'"{route}"' in "".join(lines)
                          for route in ("/run", "/stats")):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
        finally:
            set_sink(None)
        assert old_sink is not None
        events = [json.loads(line) for line in lines]
        access = [e for e in events if e["event"] == "http_access"]
        run_lines = [e for e in access if e["route"] == "/run"]
        assert len(run_lines) == 1
        entry = run_lines[0]
        assert entry["method"] == "POST"
        assert entry["status"] == 200
        assert entry["source"] == "computed"
        assert entry["seconds"] > 0
        assert isinstance(entry["key"], str) and len(entry["key"]) == 64
        stats_lines = [e for e in access if e["route"] == "/stats"]
        assert stats_lines and stats_lines[0]["method"] == "GET"

    def test_quiet_server_stays_silent(self, server_factory):
        from repro.telemetry import set_sink

        lines = []
        set_sink(lines.append)
        try:
            server = server_factory()
            post_run(server, tiny_config())
        finally:
            set_sink(None)
        assert lines == []


def post_diagnose(server: FlowServer, payload: dict):
    request = urllib.request.Request(
        base_url(server) + "/diagnose",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


class TestDiagnoseEndpoint:
    def diagnose_payload(self, **overrides):
        payload = {
            "config": tiny_config().to_dict(),
            "devices": [
                {"device": "chipA", "failing_tests": [0, 2]},
                {"device": "chipB", "failing_tests": [1],
                 "failing_outputs": [0]},
            ],
        }
        payload.update(overrides)
        return payload

    def test_cold_then_warm_context(self, server_factory):
        server = server_factory()
        status, first = post_diagnose(server, self.diagnose_payload())
        assert status == 200
        assert first["schema"] == "repro.diagnosis/v1"
        assert first["source"] == "computed"
        assert first["fault_model"] == "stuck_at"
        assert len(first["devices"]) == 2
        assert first["devices"][0]["device"] == "chipA"
        assert first["summary"]["num_devices"] == 2
        assert first["summary"]["compression_ratio"] >= 1.0

        __, second = post_diagnose(server, self.diagnose_payload())
        assert second["source"] == "cache"
        assert second["devices"] == first["devices"]

    def test_batch_matches_direct_pipeline(self, server_factory):
        from repro.flow.diagnose import build_diagnosis_context
        from repro.diagnosis import diagnose

        server = server_factory()
        __, document = post_diagnose(server, self.diagnose_payload())
        context = build_diagnosis_context(Flow(tiny_config()))
        report = diagnose(context.dictionary, 0b101)
        expected = [
            {"fault": [f.node, f.pin, f.value], "site": f.node,
             "score": score}
            for f, score in report.candidates
        ]
        assert document["devices"][0]["candidates"] == expected

    def test_chain_flag_counts_devices(self, server_factory):
        server = server_factory()
        __, document = post_diagnose(
            server, self.diagnose_payload(chain=True))
        assert document["summary"]["chain_devices"] == 1

    def test_max_candidates_truncates(self, server_factory):
        server = server_factory()
        __, document = post_diagnose(
            server, self.diagnose_payload(max_candidates=1))
        assert all(len(record["candidates"]) <= 1
                   for record in document["devices"])

    def test_huge_max_candidates_ranks_every_fault_at_most(
            self, server_factory):
        server = server_factory()
        __, huge = post_diagnose(
            server, self.diagnose_payload(max_candidates=2 ** 40))
        faults = huge["summary"]["num_faults"]
        __, every = post_diagnose(
            server, self.diagnose_payload(max_candidates=faults))
        assert huge["summary"]["max_candidates"] == 2 ** 40
        assert huge["devices"] == every["devices"]
        assert any(record["candidates"] for record in huge["devices"])

    @pytest.mark.parametrize("mutate, message", [
        (lambda p: p.pop("config"), "missing 'config'"),
        (lambda p: p.pop("devices"), "missing 'devices'"),
        (lambda p: p.update(devices="nope"), "must be a list"),
        (lambda p: p.update(devices=[{"failing_tests": [10 ** 6]}]),
         "out of range"),
        # tiny_config's circuit has 4 outputs: positions from 4 up name
        # outputs it does not have, with or without the chain re-rank.
        (lambda p: p.update(devices=[{"failing_tests": [0],
                                      "failing_outputs": [4]}]),
         "devices[0]: failing output 4 out of range 0..3"),
        (lambda p: p.update(chain=True, devices=[
            {"failing_tests": [0], "failing_outputs": [5_000_000]}]),
         "devices[0]: failing output 5000000 out of range 0..3"),
        (lambda p: p.update(max_candidates=-2), "max_candidates"),
        (lambda p: p.update(chain="yes"), "chain must be a boolean"),
        (lambda p: p["config"]["u"].update(max_vectors="100"),
         "u.max_vectors must be an integer"),
    ])
    def test_bad_requests_get_400(self, server_factory, mutate, message):
        server = server_factory()
        payload = self.diagnose_payload()
        mutate(payload)
        status, document = error_of(
            lambda: post_diagnose(server, payload))
        assert status == 400
        assert message in document["error"]

    def test_draining_server_refuses(self, server_factory):
        server = server_factory()
        server.begin_drain()
        status, __ = error_of(
            lambda: post_diagnose(server, self.diagnose_payload()))
        assert status == 503

    def test_metrics_show_devices_and_route(self, server_factory):
        server = server_factory()
        post_diagnose(server, self.diagnose_payload())
        settle(server)
        __, __t, text = get_text(server, "/metrics")
        assert sample_value(
            text, "repro_diagnosis_devices_total") >= 2.0
        assert sample_value(
            text, 'repro_http_requests_total{route="/diagnose"}') == 1.0

    def test_context_memo_is_lru_bounded(self, server_factory):
        server = server_factory(diagnosis_memo_size=1)
        first = self.diagnose_payload()
        other = self.diagnose_payload(
            config=tiny_config(gen_seed=2).to_dict())
        assert post_diagnose(server, first)[1]["source"] == "computed"
        assert post_diagnose(server, other)[1]["source"] == "computed"
        # The first config's context was evicted by the second.
        assert post_diagnose(server, first)[1]["source"] == "computed"
        assert post_diagnose(server, first)[1]["source"] == "cache"
