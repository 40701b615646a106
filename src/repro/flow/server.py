"""Flow-as-a-service: a concurrent HTTP server for ADI ordering runs.

``repro serve`` puts a long-running service in front of the staged
:class:`~repro.flow.flow.Flow` pipeline.  Clients POST a
:class:`~repro.flow.config.FlowConfig` JSON document (the ``repro.flow/v1``
config schema) and get back the run summary; the server turns heavy
repeat traffic into cheap reads through three layers:

1. **Artifact cache** — every stage result is content-addressed on disk
   (:mod:`repro.flow.cache`), so a warm request re-runs nothing;
2. **Result memo** — a small in-process LRU of finished run summaries
   keyed by :meth:`~repro.flow.flow.Flow.run_key`, so the hottest
   configs skip even artifact decoding;
3. **Single-flight dedupe** — concurrent identical requests coalesce
   onto one computation (:mod:`repro.flow.dedupe`), keyed by the same
   sha-256 stage-key chain, so a thundering herd of N equal configs
   runs the pipeline exactly once.

Endpoints (all JSON):

* ``POST /run`` — run a config; the response carries ``source``:
  ``"computed"`` (at least one stage executed), ``"cache"`` (served
  without executing any stage), or ``"inflight"`` (coalesced onto a
  concurrent identical computation).
* ``POST /run?stream=1`` — same, but as an SSE-style event stream:
  one ``stage`` event per finished pipeline stage (fed from the Flow's
  stage observer), then one ``result`` event with the full document.
* ``POST /diagnose`` — batched fault diagnosis against a config's
  dictionary: the body carries a ``config`` (the same ``repro.flow/v1``
  document) plus a ``devices`` list of observed failing-test records;
  the response is a ``repro.diagnosis/v1`` document with per-device
  ranked candidate faults.  The dictionary (circuit x faults x generated
  tests) is memoized per run key, so steady-state traffic pays only the
  vectorized batch scoring; scored devices show up in ``GET /metrics``
  as ``repro_diagnosis_devices_total``.
* ``GET /stats`` — the state ``/metrics`` does not carry (JSON): memo
  occupancy, active runs, drain state, the configured limits, and the
  cache's root, file count, byte size and degraded flag.  It holds no
  counters; those live only on ``/metrics``.
* ``GET /metrics`` — every counter, in Prometheus text exposition
  format: per-request latency histograms by route and result source
  (``repro_http_request_seconds``), served/error counters, an in-flight
  gauge, dedupe counters, cache hit/miss/put/latency series, flow stage
  timings and fault-sim spans.  Scrapes of ``/metrics`` itself are not
  recorded, so an idle server's output is scrape-stable.
* ``GET /healthz`` — ``{"status": "ok"}``, or ``"draining"``.

With ``--verbose`` the server emits one structured access-log line per
request (method, path, status, latency, result source, run key) through
:func:`repro.telemetry.log_event` — ``REPRO_LOG_FORMAT=json`` switches
it to one JSON object per line.  The stock
:meth:`~http.server.BaseHTTPRequestHandler.log_message` stderr writes
are routed through the same layer and silent by default (tests run
quiet).

Requests whose body exceeds ``max_body`` get 413; malformed JSON, a bad
``Content-Length`` or an invalid config gets 400 naming the problem; a
draining server rejects new runs with 503 (``Retry-After``) while
in-flight runs finish.  By default configs that read local files
(``circuit.kind == "bench"``) are refused — the service executes
network input — unless constructed with ``allow_bench=True``
(``repro serve --allow-bench``).

Resilience (PR 10): the leader's flow no longer runs in the handler
thread — it runs on a dedicated daemon thread that completes the
single-flight entry, and *every* handler (leader and follower alike)
just waits on the entry with a deadline.  ``request_timeout``
(``repro serve --request-timeout``) bounds that wait: an expired
request answers 504 with ``Retry-After`` and a ``partial`` section
listing the stages that did finish (streamed runs get the same payload
as a final ``error`` event); the computation itself keeps running and
lands in the memo for the retry.  ``max_concurrent_runs``
(``--max-concurrent``) sheds load with 503 + ``Retry-After`` at
admission, before the thread pool saturates.  Shed and timed-out
requests count into ``repro_resilience_shed_total`` (by reason) on
``GET /metrics``; the ``server.handler.slow`` chaos site injects
leader-side latency to exercise all of it.

The server is stdlib-only: :class:`http.server.ThreadingHTTPServer`
with daemon worker threads, one per connection.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse, parse_qs

import queue

from repro import telemetry
from repro.errors import ReproError
from repro.flow.cache import ArtifactCache
from repro.flow.config import FlowConfig
from repro.flow.dedupe import Computation, InflightTable
from repro.flow.flow import Flow
from repro.resilience import chaos as _chaos
from repro.resilience import context as _resilience
from repro.resilience.deadline import Deadline, remaining_timeout
from repro.telemetry import MetricsRegistry, log_event, render_prometheus

#: Response/stream schema version.
SERVER_SCHEMA = "repro.flow.server/v1"

#: Default request-body ceiling (a FlowConfig is a few hundred bytes).
DEFAULT_MAX_BODY = 1 << 20


class FlowServer(ThreadingHTTPServer):
    """The threaded flow service; see the module docstring for the API.

    ``cache`` is an :class:`~repro.flow.cache.ArtifactCache`, a root
    path, or ``None`` for memo-and-dedupe-only service.
    ``request_timeout`` bounds *every* ``/run`` request, leader or
    follower, streamed or not (``None`` — the default — waits as long
    as the leader computes): an expired one answers 504 with
    ``Retry-After`` and partial progress while the computation finishes
    in the background (its result lands in the memo for the retry).
    ``max_concurrent_runs`` caps concurrently admitted ``/run`` and
    ``/diagnose`` requests; excess load is shed with 503 +
    ``Retry-After`` at admission.
    ``flow_factory`` (signature ``(config, observer) -> Flow``) exists
    for tests to instrument flow construction — e.g. counting real
    executions under concurrent identical requests.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int] = ("127.0.0.1", 0), *,
                 cache: Any = None,
                 max_body: int = DEFAULT_MAX_BODY,
                 allow_bench: bool = False,
                 memo_size: int = 128,
                 quiet: bool = True,
                 request_timeout: Optional[float] = None,
                 max_concurrent_runs: Optional[int] = None,
                 diagnosis_memo_size: int = 8,
                 flow_factory=None):
        # Checked before binding, so a rejected server holds no port.
        if max_concurrent_runs is not None and max_concurrent_runs < 1:
            raise ValueError(
                f"max_concurrent_runs must be >= 1 or None, "
                f"got {max_concurrent_runs!r}")
        super().__init__(address, FlowRequestHandler)
        if cache is None or isinstance(cache, ArtifactCache):
            self.cache = cache
        else:
            self.cache = ArtifactCache(cache)
        self.max_body = max_body
        self.allow_bench = allow_bench
        self.request_timeout = request_timeout
        self.max_concurrent_runs = max_concurrent_runs
        self.quiet = quiet
        self.flow_factory = flow_factory or self._default_flow_factory
        #: Per-server telemetry registry: HTTP and dedupe series live
        #: here; flow/fsim spans accumulate in the process default
        #: registry; cache series in the cache's own.  ``GET /metrics``
        #: renders all three.
        self.registry = MetricsRegistry()
        self._requests_counter = self.registry.counter(
            "repro_http_requests_total", "HTTP requests by route.")
        self._served_counter = self.registry.counter(
            "repro_http_run_served_total",
            "POST /run responses by result source.")
        self._errors_counter = self.registry.counter(
            "repro_http_errors_total", "HTTP error responses by status.")
        self._latency = self.registry.histogram(
            "repro_http_request_seconds",
            "Request latency by route and result source.")
        self._inflight_gauge = self.registry.gauge(
            "repro_http_inflight_requests",
            "Requests currently being handled.").labels()
        self.inflight = InflightTable(registry=self.registry)
        self._memo: "collections.OrderedDict[str, Dict[str, Any]]" = \
            collections.OrderedDict()
        self._memo_size = memo_size
        #: Diagnosis contexts (dictionary + compressed + chain ranker)
        #: per run key.  Few and large, so a small dedicated LRU.
        self._diagnosis_memo: "collections.OrderedDict[str, Any]" = \
            collections.OrderedDict()
        self._diagnosis_memo_size = diagnosis_memo_size
        self._state_lock = threading.Lock()
        self._draining = False
        #: All live run slots: handler-admitted requests PLUS background
        #: leader-compute threads (drain waits for both).
        self._active_runs = 0
        #: Handler-admitted requests only — the series the concurrency
        #: limiter caps (a handed-off computation shouldn't double-count
        #: its request against the admission limit).
        self._handler_runs = 0
        self._idle = threading.Condition(self._state_lock)

    def _default_flow_factory(self, config: FlowConfig, observer) -> Flow:
        return Flow(config, cache=self.cache, observer=observer)

    # -- counters / memo -----------------------------------------------------

    def count_error(self, status: int) -> None:
        """Record one error response (labelled by HTTP status)."""
        self._errors_counter.labels(status=str(status)).inc()

    def count_route(self, route: str) -> None:
        """Record one request by route."""
        self._requests_counter.labels(route=route).inc()

    def observe_request(self, route: str, source: str,
                        seconds: float) -> None:
        """Record one finished request in the latency histogram."""
        self._latency.labels(route=route, source=source).observe(seconds)

    def memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._state_lock:
            document = self._memo.get(key)
            if document is not None:
                self._memo.move_to_end(key)
            return document

    def memo_put(self, key: str, document: Dict[str, Any]) -> None:
        if self._memo_size <= 0:
            return
        with self._state_lock:
            self._memo[key] = document
            self._memo.move_to_end(key)
            while len(self._memo) > self._memo_size:
                self._memo.popitem(last=False)

    def diagnosis_context_get(self, key: str):
        with self._state_lock:
            context = self._diagnosis_memo.get(key)
            if context is not None:
                self._diagnosis_memo.move_to_end(key)
            return context

    def diagnosis_context_put(self, key: str, context: Any) -> None:
        if self._diagnosis_memo_size <= 0:
            return
        with self._state_lock:
            self._diagnosis_memo[key] = context
            self._diagnosis_memo.move_to_end(key)
            while len(self._diagnosis_memo) > self._diagnosis_memo_size:
                self._diagnosis_memo.popitem(last=False)

    # -- drain / shutdown ----------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._state_lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new runs (they get 503); in-flight runs finish."""
        with self._state_lock:
            self._draining = True

    def enter_run(self) -> Optional[str]:
        """Admission control: registers a run, or names the refusal.

        Returns ``None`` when admitted, else the shed reason —
        ``"draining"`` or ``"capacity"`` (the ``max_concurrent_runs``
        limiter refusing before the thread pool saturates).
        """
        with self._state_lock:
            if self._draining:
                return "draining"
            if (self.max_concurrent_runs is not None
                    and self._handler_runs >= self.max_concurrent_runs):
                return "capacity"
            self._handler_runs += 1
            self._active_runs += 1
            return None

    def exit_run(self) -> None:
        with self._idle:
            self._handler_runs -= 1
            self._active_runs -= 1
            if self._active_runs == 0:
                self._idle.notify_all()

    def adopt_run(self) -> None:
        """Register a background leader-compute thread as a live run.

        Unchecked (the request carrying it was already admitted), and
        not counted against the concurrency limit — but :meth:`drain`
        waits for it, so graceful shutdown never abandons a computation
        whose handler already timed out and answered 504.
        """
        with self._state_lock:
            self._active_runs += 1

    def release_run(self) -> None:
        """Retire a slot taken by :meth:`adopt_run`."""
        with self._idle:
            self._active_runs -= 1
            if self._active_runs == 0:
                self._idle.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Begin drain and wait for in-flight runs; ``False`` on timeout."""
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._active_runs > 0:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def shutdown_gracefully(self, timeout: Optional[float] = None) -> bool:
        """Drain, then stop the accept loop and close the socket."""
        drained = self.drain(timeout)
        self.shutdown()
        self.server_close()
        return drained

    def stats_document(self) -> Dict[str, Any]:
        """The ``/stats`` payload: state ``GET /metrics`` does not carry."""
        with self._state_lock:
            memo = {"entries": len(self._memo), "size": self._memo_size}
            draining = self._draining
            active = self._active_runs
        document: Dict[str, Any] = {
            "schema": SERVER_SCHEMA,
            "memo": memo,
            "active_runs": active,
            "draining": draining,
            "limits": {
                "request_timeout": self.request_timeout,
                "max_concurrent_runs": self.max_concurrent_runs,
            },
            "metrics_endpoint": "/metrics",
        }
        if self.cache is not None:
            cache_stats = self.cache.stats()
            document["cache"] = {
                "files": cache_stats["total_files"],
                "bytes": cache_stats["total_bytes"],
                "root": cache_stats["root"],
                "degraded": cache_stats["degraded"],
            }
        return document

    def metrics_text(self) -> str:
        """The ``/metrics`` payload: Prometheus text exposition.

        Renders the server's own registry (HTTP + dedupe series), the
        cache's (hit/miss/put/latency/disk bytes — refreshed first, so
        the byte gauge is current at scrape time) and the process
        default registry (flow stage and fault-sim spans, including
        per-shard series merged back from ``parallel`` workers).
        """
        registries = [self.registry]
        if self.cache is not None:
            self.cache.stats()  # refresh repro_cache_disk_bytes
            registries.append(self.cache.registry)
        registries.append(telemetry.get_registry())
        return render_prometheus(*registries)


class _HTTPError(Exception):
    """A client-visible error with an HTTP status."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class FlowRequestHandler(BaseHTTPRequestHandler):
    """One request: parse → admit → dedupe → run/serve → respond.

    Responses go out as a header write and a body write (or one write
    per streamed event).  With Nagle's algorithm on, the second small
    write waits for the ACK of the first, and a keep-alive client that
    has nothing to send delays that ACK by about 40 ms, so every
    response would stall.  ``disable_nagle_algorithm`` makes
    :mod:`socketserver` set ``TCP_NODELAY`` on each accepted
    connection, so every write leaves at once.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: FlowServer  # narrowed for type checkers

    # -- plumbing ------------------------------------------------------------

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        # The stock per-response stderr line is superseded by the
        # structured access log below; suppressing it here keeps tests
        # (and piped deployments) free of unformatted noise.
        pass

    def log_message(self, format: str, *args: Any) -> None:
        # http.server's remaining internal messages (log_error on bad
        # requests etc.) go through the telemetry logging layer — one
        # structured line, JSON-able, silent on quiet servers.
        if not self.server.quiet:
            log_event("http_server", level="warning",
                      message=format % args,
                      client=self.address_string())

    def _access_log(self, method: str, route: str, status: int,
                    source: str, seconds: float) -> None:
        if self.server.quiet:
            return
        log_event("http_access", method=method, path=self.path,
                  route=route, status=status, source=source or None,
                  seconds=round(seconds, 6),
                  key=getattr(self, "_run_key", None),
                  client=self.address_string())

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._status = code
        super().send_response(code, message)

    def _send_json(self, status: int, document: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str,
                         headers: Optional[Dict[str, str]] = None,
                         extra: Optional[Dict[str, Any]] = None) -> None:
        self.server.count_error(status)
        self._source = "error"
        document: Dict[str, Any] = {
            "schema": SERVER_SCHEMA, "error": message, "status": status,
        }
        if extra:
            document.update(extra)
        self._send_json(status, document, headers)

    def _shed_message(self, reason: str) -> str:
        if reason == "draining":
            return "server is draining"
        return (f"server at capacity "
                f"({self.server.max_concurrent_runs} concurrent runs)")

    def _shed(self, reason: str) -> None:
        """Refuse an unadmitted request: 503 + Retry-After, counted."""
        _resilience.record("shed", "flow.server", reason=reason,
                           key=getattr(self, "_run_key", None))
        self._send_error_json(503, self._shed_message(reason),
                              {"Retry-After": "1"})

    # -- request body --------------------------------------------------------

    def _read_json_body(self) -> Any:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _HTTPError(411, "Content-Length required")
        try:
            length = int(length_header)
        except ValueError:
            raise _HTTPError(400, "malformed Content-Length")
        if length < 0:
            # A negative length would make rfile.read() consume until
            # EOF — an unbounded body sneaking past the 413 ceiling.
            raise _HTTPError(400, "malformed Content-Length")
        if length > self.server.max_body:
            # Close rather than read an arbitrarily large body.
            self.close_connection = True
            raise _HTTPError(
                413, f"request body {length} bytes exceeds limit "
                     f"{self.server.max_body}")
        body = self.rfile.read(length)
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}")

    def _parse_config(self, data: Any) -> FlowConfig:
        try:
            config = FlowConfig.from_dict(data).validate()
        except ReproError as exc:
            raise _HTTPError(400, str(exc))
        if config.requires_local_files() and not self.server.allow_bench:
            raise _HTTPError(
                400, "circuit.kind 'bench' reads local files and is "
                     "disabled on this server (start with --allow-bench)")
        return config

    def _read_config(self) -> FlowConfig:
        return self._parse_config(self._read_json_body())

    # -- handlers ------------------------------------------------------------

    def do_GET(self) -> None:
        path = urlparse(self.path).path
        started = time.perf_counter()
        self._source = ""
        self._status = 0
        if path == "/metrics":
            # Scrapes are served but deliberately not recorded — no
            # counter, histogram or in-flight gauge movement — so two
            # back-to-back scrapes of an idle server are byte-identical
            # (scrape-stability is tested).
            try:
                body = self.server.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type",
                                 "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True
            finally:
                self._access_log("GET", path, self._status, self._source,
                                 time.perf_counter() - started)
            return
        route = path if path in ("/stats", "/healthz") else "other"
        self.server._inflight_gauge.inc()
        try:
            if path == "/stats":
                self._send_json(200, self.server.stats_document())
            elif path == "/healthz":
                status = "draining" if self.server.draining else "ok"
                self._send_json(200, {"schema": SERVER_SCHEMA,
                                      "status": status})
            else:
                self._send_error_json(404, f"unknown path {path!r}")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        finally:
            self.server._inflight_gauge.dec()
            seconds = time.perf_counter() - started
            self.server.count_route(route)
            self.server.observe_request(route, self._source, seconds)
            self._access_log("GET", route, self._status, self._source,
                             seconds)

    def do_POST(self) -> None:
        parsed = urlparse(self.path)
        started = time.perf_counter()
        self._source = ""
        self._status = 0
        if parsed.path == "/diagnose":
            self._do_diagnose(started)
            return
        if parsed.path != "/run":
            self.server.count_route("other")
            self._send_error_json(404, f"unknown path {parsed.path!r}")
            self._access_log("POST", "other", self._status, self._source,
                             time.perf_counter() - started)
            return
        stream = parse_qs(parsed.query).get("stream", ["0"])[0] not in \
            ("0", "", "false")
        self.server.count_route("/run")
        self.server._inflight_gauge.inc()
        try:
            try:
                config = self._read_config()
            except _HTTPError as exc:
                self._send_error_json(exc.status, str(exc), exc.headers)
                return
            reason = self.server.enter_run()
            if reason is not None:
                self._shed(reason)
                return
            try:
                self._serve_run(config, stream)
            finally:
                self.server.exit_run()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        finally:
            self.server._inflight_gauge.dec()
            seconds = time.perf_counter() - started
            self.server.observe_request("/run", self._source, seconds)
            self._access_log("POST", "/run", self._status, self._source,
                             seconds)

    # -- the diagnose path ---------------------------------------------------

    def _do_diagnose(self, started: float) -> None:
        """``POST /diagnose``: batched diagnosis against one config.

        Body: ``{"config": <repro.flow/v1>, "devices": [{"device": id,
        "failing_tests": [...], "failing_outputs": [...]}, ...],
        "max_candidates": K, "chain": bool}``.  The diagnosis context
        (dictionary + compressed form + chain ranker) is memoized per
        run key, so only the first request for a config pays the
        dictionary simulation; every request's devices run through the
        batched pipeline and land in ``repro_diagnosis_devices_total``.
        """
        self.server.count_route("/diagnose")
        self.server._inflight_gauge.inc()
        try:
            try:
                document = self._serve_diagnose()
            except _HTTPError as exc:
                self._send_error_json(exc.status, str(exc), exc.headers)
                return
            self._send_json(200, document)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        finally:
            self.server._inflight_gauge.dec()
            seconds = time.perf_counter() - started
            self.server.observe_request("/diagnose", self._source, seconds)
            self._access_log("POST", "/diagnose", self._status,
                             self._source, seconds)

    def _serve_diagnose(self) -> Dict[str, Any]:
        from repro.errors import DiagnosisInputError
        from repro.flow.diagnose import (
            build_diagnosis_context,
            diagnosis_document,
            parse_fail_entries,
        )

        data = self._read_json_body()
        if not isinstance(data, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        if "config" not in data:
            raise _HTTPError(400, "request body is missing 'config'")
        if "devices" not in data:
            raise _HTTPError(400, "request body is missing 'devices'")
        config = self._parse_config(data["config"])
        max_candidates = data.get("max_candidates", 10)
        if not isinstance(max_candidates, int) \
                or isinstance(max_candidates, bool) or max_candidates < 0:
            raise _HTTPError(
                400, "max_candidates must be a non-negative integer")
        chain = data.get("chain", False)
        if not isinstance(chain, bool):
            raise _HTTPError(400, "chain must be a boolean")

        try:
            flow = self.server.flow_factory(config, None)
            key = flow.run_key()
        except ReproError as exc:
            raise _HTTPError(400, f"invalid flow config: {exc}")
        self._run_key = key

        reason = self.server.enter_run()
        if reason is not None:
            _resilience.record("shed", "flow.server", reason=reason, key=key)
            raise _HTTPError(503, self._shed_message(reason),
                             {"Retry-After": "1"})
        try:
            context = self.server.diagnosis_context_get(key)
            source = "cache"
            if context is None:
                source = "computed"
                try:
                    context = build_diagnosis_context(flow)
                except ReproError as exc:
                    raise _HTTPError(400, f"flow execution failed: {exc}")
                self.server.diagnosis_context_put(key, context)
            try:
                log = parse_fail_entries(data["devices"],
                                         context.num_tests)
                document = diagnosis_document(
                    context, log, max_candidates=max_candidates,
                    chain=chain, source=source,
                )
            except DiagnosisInputError as exc:
                raise _HTTPError(400, str(exc))
            self._source = source
            return document
        finally:
            self.server.exit_run()

    # -- the run path --------------------------------------------------------

    def _serve_run(self, config: FlowConfig, stream: bool) -> None:
        try:
            probe = self.server.flow_factory(config, None)
            key = probe.run_key()
        except ReproError as exc:
            self._send_error_json(400, f"invalid flow config: {exc}")
            return
        self._run_key = key

        memo = self.server.memo_get(key)
        if memo is not None:
            # source/fingerprint describe THIS request, not the one that
            # populated the memo (e.g. a different backend spec).
            document = dict(memo, source="cache",
                            config_fingerprint=config.fingerprint())
            self.server._served_counter.labels(source="cache").inc()
            self._source = "cache"
            if stream:
                self._stream_events(
                    [("stage", info) for info in document["result"]["stages"]],
                    document)
            else:
                self._send_json(200, document)
            return

        entry, leads = self.server.inflight.lease(key)
        deadline = Deadline.after(self.server.request_timeout)
        subscription = entry.subscribe() if stream else None
        if leads:
            # The leader's flow runs on a dedicated daemon thread that
            # completes the single-flight entry; this handler — exactly
            # like a follower — only *waits* on the entry, bounded by
            # the request deadline.  A slow computation can therefore
            # never pin a handler past its budget, and a client
            # disconnect can never poison the shared entry.
            self.server.adopt_run()
            worker = threading.Thread(
                target=self._leader_compute, args=(config, entry),
                name=f"flow-leader-{key[:8]}", daemon=True)
            try:
                worker.start()
            except BaseException as exc:
                # Could not even start the thread (resource exhaustion):
                # retire the slot and the entry so the key is not wedged.
                self.server.release_run()
                self.server.inflight.complete(entry, exception=exc)
                raise
        self._await_entry(config, entry, "leader" if leads else "follower",
                          stream, subscription, deadline)

    def _leader_compute(self, config: FlowConfig,
                        entry: Computation) -> None:
        """Run the flow off-handler and complete the entry exactly once.

        Every exit path completes the entry (result or exception) and
        releases the adopted run slot — so followers always wake, later
        identical requests never block on a dead entry, and
        :meth:`FlowServer.drain` waits for computations whose handlers
        already answered 504 and went away.
        """
        try:
            try:
                if _chaos.fire("server.handler.slow", key=entry.key):
                    time.sleep(float(_chaos.param(
                        "server.handler.slow", "seconds", 0.25)))

                def observer(info) -> None:
                    entry.publish(("stage", info.to_dict()))

                flow = self.server.flow_factory(config, observer)
                result = flow.run()
                sources = {info.source for info in result.stages
                           if info.stage != "circuit"}
                source = ("cache" if sources <= {"cache", "memory"}
                          else "computed")
                document = {
                    "schema": SERVER_SCHEMA,
                    "key": entry.key,
                    "source": source,
                    "config_fingerprint": config.fingerprint(),
                    "result": result.summary(),
                }
            except BaseException as exc:
                self.server.inflight.complete(entry, exception=exc)
                return
            self.server.memo_put(entry.key, document)
            self.server.inflight.complete(entry, document)
        finally:
            self.server.release_run()

    def _await_entry(self, config: FlowConfig, entry: Computation,
                     role: str, stream: bool, subscription,
                     deadline: Optional[Deadline]) -> None:
        """Wait for the entry under the request budget and respond."""
        if stream:
            self._relay_stream(config, entry, role, subscription, deadline)
            return
        if not entry.wait(remaining_timeout(deadline)):
            self._timeout_response(entry, streamed=False)
            return
        try:
            document = self._served_document(config, entry, role)
        except BaseException as exc:
            self._send_error_json(500, f"flow execution failed: {exc}")
            return
        self._send_json(200, document)

    def _relay_stream(self, config: FlowConfig, entry: Computation,
                      role: str, subscription,
                      deadline: Optional[Deadline]) -> None:
        """Stream the entry's events under the request budget.

        The subscription replays events already published, then follows
        live ones; the whole relay shares one deadline, and expiry turns
        into a final ``error`` event carrying the 504 + partial
        progress (HTTP headers are long gone by then).
        """
        self._start_stream()
        while True:
            try:
                event = entry.next_event(
                    subscription, remaining_timeout(deadline))
            except queue.Empty:
                self._timeout_response(entry, streamed=True)
                return
            if event is None:
                break
            self._write_event(*event)
        try:
            document = self._served_document(config, entry, role)
        except BaseException as exc:
            self.server.count_error(500)
            self._source = "error"
            self._write_event("error", {
                "schema": SERVER_SCHEMA,
                "error": f"flow execution failed: {exc}", "status": 500,
            })
            return
        self._write_event("result", document)

    def _served_document(self, config: FlowConfig, entry: Computation,
                         role: str) -> Dict[str, Any]:
        """The finished entry's document as this request's answer, with
        its source counted; re-raises the leader's exception.

        Leaders and followers differ only here: a follower re-stamps
        ``source="inflight"`` and its own config fingerprint.
        """
        document = entry.outcome()
        if role == "follower":
            document = dict(document, source="inflight",
                            config_fingerprint=config.fingerprint())
        self._source = document["source"]
        self.server._served_counter.labels(source=self._source).inc()
        return document

    def _timeout_response(self, entry: Computation, streamed: bool) -> None:
        """Answer 504 with partial progress; the computation lives on."""
        message = (f"request deadline of "
                   f"{self.server.request_timeout:g}s exceeded; the "
                   "computation continues and will serve a retry")
        _resilience.record("timeout", "flow.server", reason="deadline",
                           key=entry.key)
        stages = [payload for kind, payload in entry.progress()
                  if kind == "stage"]
        partial = {
            "stages_completed": len(stages),
            "stages": [payload.get("stage") for payload in stages],
        }
        if streamed:
            self.server.count_error(504)
            self._source = "error"
            self._write_event("error", {
                "schema": SERVER_SCHEMA, "error": message, "status": 504,
                "retry_after": 1, "partial": partial,
            })
        else:
            self._send_error_json(504, message, {"Retry-After": "1"},
                                  extra={"partial": partial})

    # -- SSE-style streaming -------------------------------------------------

    def _start_stream(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # Stream length is unknown; close delimits the body (HTTP/1.1
        # without Content-Length), so tell the client not to reuse it.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()

    def _write_event(self, kind: str, payload: Dict[str, Any]) -> None:
        try:
            chunk = f"event: {kind}\ndata: {json.dumps(payload)}\n\n"
            self.wfile.write(chunk.encode("utf-8"))
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            # Consumer went away mid-stream; the computation (shared
            # with other requests) must keep going.
            pass

    def _stream_events(self, events, document: Dict[str, Any]) -> None:
        self._start_stream()
        for kind, payload in events:
            self._write_event(kind, payload)
        self._write_event("result", document)


def start_in_thread(server: FlowServer) -> threading.Thread:
    """Run the accept loop on a daemon thread (tests, benchmarks)."""
    thread = threading.Thread(target=server.serve_forever,
                              name="flow-server", daemon=True)
    thread.start()
    return thread
