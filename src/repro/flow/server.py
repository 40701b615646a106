"""Flow-as-a-service: a concurrent HTTP server for ADI ordering runs.

``repro serve`` puts a long-running service in front of the staged
:class:`~repro.flow.flow.Flow` pipeline.  Clients POST a
:class:`~repro.flow.config.FlowConfig` JSON document (the ``repro.flow/v1``
config schema) and get back the run summary; the server turns heavy
repeat traffic into cheap reads through three layers:

1. **Artifact cache** — every stage result is content-addressed on disk
   (:mod:`repro.flow.cache`), so a warm request re-runs nothing;
2. **Single-flight dedupe** — concurrent identical requests coalesce
   onto one computation (:mod:`repro.flow.dedupe`), keyed by
   :meth:`~repro.flow.flow.Flow.run_key`, the sha-256 stage-key chain,
   so a thundering herd of N equal configs runs the pipeline exactly
   once;
3. **Finished runs** — the same table keeps the last finished runs, so
   the hottest configs skip even artifact decoding.

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

One envelope runs every route, GET and POST alike.  It reads exactly
the declared request body, so a keep-alive connection stays in step
even when the route refuses the request; a body it cannot frame (no,
malformed or negative ``Content-Length``, or one above ``max_body``) is
left unread and the response says ``Connection: close``.  It answers
every refusal with one error document, and records the route counter,
in-flight gauge, latency histogram and access log.

A ``/run`` request makes one :meth:`~repro.flow.dedupe.InflightTable.lease`
call, which makes it the leader of a new computation, a follower of one
in flight (``source: "inflight"``) or a reader of a finished one the
table kept (``source: "cache"``; the table keeps the last ``memo_size``).
The leader's flow runs on a dedicated daemon thread that completes the
entry, and every handler just waits on the entry.  ``request_timeout``
(``repro serve --request-timeout``) bounds that wait, a monotonic
budget clamped at zero: an expired request answers 504 with
``Retry-After`` and a ``partial`` section listing the stages that did
finish (streamed runs get the same payload as a final ``error`` event);
the computation itself keeps running and serves the retry.
``max_concurrent_runs`` (``--max-concurrent``) sheds ``/run`` and
``/diagnose`` load with 503 + ``Retry-After`` at admission, before the
thread pool saturates.  Shed and timed-out requests count into
``repro_resilience_shed_total`` (by reason) on ``GET /metrics``; the
``server.handler.slow`` chaos site injects leader-side latency to
exercise all of it.

The server is stdlib-only: :class:`http.server.ThreadingHTTPServer`
with daemon worker threads, one per connection.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse, parse_qs

from repro import telemetry
from repro.errors import DiagnosisInputError, ReproError
from repro.flow.cache import ArtifactCache
from repro.flow.config import FlowConfig
from repro.flow.dedupe import LEADER, LRU, Computation, InflightTable
from repro.flow.flow import Flow
from repro.resilience import chaos as _chaos
from repro.resilience import context as _resilience
from repro.telemetry import MetricsRegistry, log_event, render_prometheus

#: Response/stream schema version.
SERVER_SCHEMA = "repro.flow.server/v1"

#: Default request-body ceiling (a FlowConfig is a few hundred bytes).
DEFAULT_MAX_BODY = 1 << 20


class FlowServer(ThreadingHTTPServer):
    """The threaded flow service; see the module docstring for the API.

    ``cache`` is an :class:`~repro.flow.cache.ArtifactCache`, a root
    path, or ``None`` for a server that keeps finished runs in memory
    only.  ``memo_size`` finished runs and ``diagnosis_memo_size``
    diagnosis contexts are kept, least recently used evicted first.
    ``request_timeout`` bounds *every* ``/run`` request, leader or
    follower, streamed or not (``None`` — the default — waits as long
    as the leader computes): an expired one answers 504 with
    ``Retry-After`` and partial progress while the computation finishes
    in the background (the table keeps its result for the retry).
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
        self.inflight = InflightTable(registry=self.registry,
                                      memo_size=memo_size)
        #: Diagnosis contexts (dictionary + compressed + chain ranker)
        #: per run key, under ``_state_lock``.
        self._diagnosis_contexts = LRU(diagnosis_memo_size)
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

    def diagnosis_context_get(self, key: str) -> Any:
        with self._state_lock:
            return self._diagnosis_contexts.get(key)

    def diagnosis_context_put(self, key: str, context: Any) -> None:
        with self._state_lock:
            self._diagnosis_contexts.put(key, context)

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
            draining = self._draining
            active = self._active_runs
        document: Dict[str, Any] = {
            "schema": SERVER_SCHEMA,
            "memo": self.inflight.memo_state(),
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
    """A client-visible error: its status, headers and document fields."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None, **extra: Any):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}
        self.extra = extra


def _seconds_left(expires: Optional[float]) -> Optional[float]:
    """What is left of a monotonic budget (``None``: unbounded).

    Clamped at 0, so a wait on an expired budget returns at once:
    ``SimpleQueue.get`` raises ``ValueError`` on a negative timeout.
    """
    return None if expires is None else max(0.0, expires - time.monotonic())


class FlowRequestHandler(BaseHTTPRequestHandler):
    """One request: envelope → route → admit → lease → wait → respond.

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

    #: ``(method, path)`` → the method serving it.  Anything else is a
    #: 404, recorded under the route ``other``.
    _ROUTES = {
        ("GET", "/metrics"): "_get_metrics",
        ("GET", "/stats"): "_get_stats",
        ("GET", "/healthz"): "_get_healthz",
        ("POST", "/run"): "_post_run",
        ("POST", "/diagnose"): "_post_diagnose",
    }

    # -- the envelope --------------------------------------------------------

    def do_GET(self) -> None:
        self._handle()

    def do_POST(self) -> None:
        self._handle()

    def _handle(self) -> None:
        """Run one request's route inside the envelope every route shares.

        The envelope reads the body, answers an :class:`_HTTPError` with
        its error document, absorbs a client that went away, releases
        an admitted run slot once the answer is written (so drain waits
        for it), and records the request: route counter, in-flight
        gauge, latency histogram by route and source, access log.
        ``GET /metrics`` is served but not recorded, so back-to-back
        scrapes of an idle server are byte-identical.
        """
        started = time.perf_counter()
        parsed = urlparse(self.path)
        serve = self._ROUTES.get((self.command, parsed.path))
        route = parsed.path if serve else "other"
        recorded = route != "/metrics"
        server = self.server
        self._source = ""
        self._status = 0
        self._run_key: Optional[str] = None
        self._streaming = False
        self._holds_run = False
        if recorded:
            server._requests_counter.labels(route=route).inc()
            server._inflight_gauge.inc()
        try:
            try:
                self._read_body()
                if serve is None:
                    raise _HTTPError(404, f"unknown path {parsed.path!r}")
                getattr(self, serve)(parsed.query)
            except _HTTPError as exc:
                self._send_error(exc)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        finally:
            if self._holds_run:
                server.exit_run()
            seconds = time.perf_counter() - started
            if recorded:
                server._inflight_gauge.dec()
                server._latency.labels(
                    route=route, source=self._source).observe(seconds)
            if not server.quiet:
                log_event("http_access", method=self.command,
                          path=self.path, route=route, status=self._status,
                          source=self._source or None,
                          seconds=round(seconds, 6), key=self._run_key,
                          client=self.address_string())

    def _read_body(self) -> None:
        """Read exactly the declared body, so the next request on this
        connection starts where this one ends.

        A body it cannot frame — no ``Content-Length`` on a POST or with
        a ``Transfer-Encoding``, a malformed or negative one, or one
        above ``max_body`` — stays unread: the refusal waits for a route
        that reads the body, and the connection closes after the answer.
        """
        self._body: Any = b""
        header = self.headers.get("Content-Length")
        if header is None:
            if self.command == "POST" or "Transfer-Encoding" in self.headers:
                self._refuse_body(411, "Content-Length required")
            return
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would read until EOF: an unbounded body
            # sneaking past the 413 ceiling.
            self._refuse_body(400, "malformed Content-Length")
        elif length > self.server.max_body:
            self._refuse_body(413, f"request body {length} bytes exceeds "
                                   f"limit {self.server.max_body}")
        else:
            self._body = self.rfile.read(length)

    def _refuse_body(self, status: int, message: str) -> None:
        self._body = _HTTPError(status, message)
        self.close_connection = True

    def _json_body(self) -> Any:
        if isinstance(self._body, _HTTPError):
            raise self._body
        try:
            return json.loads(self._body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}")

    def _send_error(self, exc: _HTTPError) -> None:
        """The error document; on a stream, whose headers are long gone,
        a final ``error`` event carrying the same payload."""
        self.server._errors_counter.labels(status=str(exc.status)).inc()
        self._source = "error"
        document: Dict[str, Any] = {
            "schema": SERVER_SCHEMA, "error": str(exc), "status": exc.status,
        }
        if not self._streaming:
            self._send_json(exc.status, dict(document, **exc.extra),
                            exc.headers)
            return
        if "Retry-After" in exc.headers:
            document["retry_after"] = int(exc.headers["Retry-After"])
        self._write_event("error", dict(document, **exc.extra))

    # -- plumbing ------------------------------------------------------------

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        # The stock per-response stderr line is superseded by the
        # envelope's structured access log.
        pass

    def log_message(self, format: str, *args: Any) -> None:
        # http.server's remaining internal messages (log_error on bad
        # requests etc.) go through the telemetry logging layer — one
        # structured line, JSON-able, silent on quiet servers.
        if not self.server.quiet:
            log_event("http_server", level="warning",
                      message=format % args,
                      client=self.address_string())

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._status = code
        super().send_response(code, message)

    def _send_head(self, status: int, headers: Dict[str, str]) -> None:
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_head(status, {"Content-Type": content_type,
                                 "Content-Length": str(len(body)),
                                 **(headers or {})})
        self.wfile.write(body)

    def _send_json(self, status: int, document: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        self._send_body(status, json.dumps(document).encode("utf-8"),
                        "application/json", headers)

    def _start_stream(self) -> None:
        # Stream length is unknown; close delimits the body (HTTP/1.1
        # without Content-Length), so tell the client not to reuse it.
        self.close_connection = True
        self._send_head(200, {"Content-Type": "text/event-stream",
                              "Cache-Control": "no-store"})
        self._streaming = True

    def _write_event(self, kind: str, payload: Dict[str, Any]) -> None:
        try:
            chunk = f"event: {kind}\ndata: {json.dumps(payload)}\n\n"
            self.wfile.write(chunk.encode("utf-8"))
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            # Consumer went away mid-stream; the computation (shared
            # with other requests) must keep going.
            pass

    # -- GET routes ----------------------------------------------------------

    def _get_metrics(self, query: str) -> None:
        self._send_body(200, self.server.metrics_text().encode("utf-8"),
                        "text/plain; version=0.0.4; charset=utf-8")

    def _get_stats(self, query: str) -> None:
        self._send_json(200, self.server.stats_document())

    def _get_healthz(self, query: str) -> None:
        status = "draining" if self.server.draining else "ok"
        self._send_json(200, {"schema": SERVER_SCHEMA, "status": status})

    # -- admission -----------------------------------------------------------

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

    def _admit(self, config: FlowConfig) -> Flow:
        """Key the request, then take a run slot the envelope releases.

        Returns the probe flow that computed the run key.  A refused
        request answers 503 + ``Retry-After``, counted as shed.
        """
        try:
            flow = self.server.flow_factory(config, None)
            self._run_key = flow.run_key()
        except ReproError as exc:
            raise _HTTPError(400, f"invalid flow config: {exc}")
        reason = self.server.enter_run()
        if reason is not None:
            _resilience.record("shed", "flow.server", reason=reason,
                               key=self._run_key)
            message = ("server is draining" if reason == "draining" else
                       f"server at capacity "
                       f"({self.server.max_concurrent_runs} concurrent runs)")
            raise _HTTPError(503, message, {"Retry-After": "1"})
        self._holds_run = True
        return flow

    # -- the diagnose path ---------------------------------------------------

    def _post_diagnose(self, query: str) -> None:
        """``POST /diagnose``: batched diagnosis against one config.

        Body: ``{"config": <repro.flow/v1>, "devices": [{"device": id,
        "failing_tests": [...], "failing_outputs": [...]}, ...],
        "max_candidates": K, "chain": bool}``.  The diagnosis context
        (dictionary + compressed form + chain ranker) is memoized per
        run key, so only the first request for a config pays the
        dictionary simulation; every request's devices run through the
        batched pipeline and land in ``repro_diagnosis_devices_total``.
        """
        from repro.flow.diagnose import (
            build_diagnosis_context,
            diagnosis_document,
            parse_fail_entries,
        )

        data = self._json_body()
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

        flow = self._admit(config)
        context = self.server.diagnosis_context_get(self._run_key)
        source = "cache"
        if context is None:
            source = "computed"
            try:
                context = build_diagnosis_context(flow)
            except ReproError as exc:
                raise _HTTPError(500, f"flow execution failed: {exc}")
            self.server.diagnosis_context_put(self._run_key, context)
        try:
            log = parse_fail_entries(data["devices"], context.num_tests,
                                     context.ranker.num_outputs)
            document = diagnosis_document(
                context, log, max_candidates=max_candidates,
                chain=chain, source=source,
            )
        except DiagnosisInputError as exc:
            raise _HTTPError(400, str(exc))
        self._source = source
        self._send_json(200, document)

    # -- the run path --------------------------------------------------------

    def _post_run(self, query: str) -> None:
        """``POST /run``: one lease makes the request the leader, a
        follower or a reader of a finished run; every role then waits
        on the entry under the request budget and answers from it."""
        stream = parse_qs(query).get("stream", ["0"])[0] not in \
            ("0", "", "false")
        config = self._parse_config(self._json_body())
        self._admit(config)
        entry, role = self.server.inflight.lease(self._run_key)
        timeout = self.server.request_timeout
        expires = None if timeout is None else time.monotonic() + timeout
        if role == LEADER:
            # The leader's flow runs on a dedicated daemon thread that
            # completes the entry; this handler — exactly like a
            # follower — only *waits* on the entry under the request
            # budget.  A slow computation can therefore never pin a
            # handler past its budget, and a client disconnect can
            # never poison the shared entry.
            self.server.adopt_run()
            worker = threading.Thread(
                target=self._leader_compute, args=(config, entry),
                name=f"flow-leader-{entry.key[:8]}", daemon=True)
            try:
                worker.start()
            except BaseException as exc:
                # Could not even start the thread (resource exhaustion):
                # retire the slot and the entry so the key is not wedged.
                self.server.release_run()
                self.server.inflight.complete(entry, exception=exc)
                raise
        if stream:
            # Replays the events already published, then follows live
            # ones, all under the one budget.
            subscription = entry.subscribe()
            self._start_stream()
            while True:
                try:
                    event = entry.next_event(subscription,
                                             _seconds_left(expires))
                except queue.Empty:
                    raise self._deadline_error(entry) from None
                if event is None:
                    break
                self._write_event(*event)
        elif not entry.wait(_seconds_left(expires)):
            raise self._deadline_error(entry)
        try:
            document = entry.outcome()
        except BaseException as exc:
            raise _HTTPError(500, f"flow execution failed: {exc}") from exc
        if role != LEADER:
            # source/fingerprint describe THIS request, not the one that
            # led the computation (e.g. a different backend spec).
            document = dict(document, source=role,
                            config_fingerprint=config.fingerprint())
        self._source = document["source"]
        self.server._served_counter.labels(source=self._source).inc()
        if stream:
            self._write_event("result", document)
        else:
            self._send_json(200, document)

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
            self.server.inflight.complete(entry, document)
        finally:
            self.server.release_run()

    def _deadline_error(self, entry: Computation) -> _HTTPError:
        """The 504 for a spent budget, with the stages finished so far;
        the computation lives on and serves the retry."""
        _resilience.record("timeout", "flow.server", reason="deadline",
                           key=entry.key)
        stages = [payload.get("stage") for kind, payload in entry.progress()
                  if kind == "stage"]
        return _HTTPError(
            504, f"request deadline of {self.server.request_timeout:g}s "
                 "exceeded; the computation continues and will serve a "
                 "retry",
            {"Retry-After": "1"},
            partial={"stages_completed": len(stages), "stages": stages})


def start_in_thread(server: FlowServer) -> threading.Thread:
    """Run the accept loop on a daemon thread (tests, benchmarks)."""
    thread = threading.Thread(target=server.serve_forever,
                              name="flow-server", daemon=True)
    thread.start()
    return thread
