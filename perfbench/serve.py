"""serve_mixed: ``repro serve`` in a subprocess under seeded HTTP traffic.

Set-up starts the server several times; ``setup_s`` is the median time
from process start to a healthy ``/healthz``.  The cold pass
(``cold_run_s``) primes, over HTTP, a working set of small generator
configs -- twice the server's 128-entry result memo, so later hits come
both from the memo and from disk -- plus one diagnosis config and its
first ``/diagnose``.

Phase A is a seeded open loop at a fixed rate over two persistent
HTTP/1.1 connections from one client process (the host has two cores).
The client is a stock ``http.client`` connection, so a response costs
what it costs any keep-alive client.  The server writes headers and body
in two sends with Nagle's algorithm on, so when a client sends its next
request as soon as the last answer arrived, the body waits for that
client's delayed ACK: about 44 ms per response on Linux loopback.  Phase
B, which sends back to back, shows the limit this sets (about 45
requests per second on two connections); phase A runs well below it,
each connection sending every ~143 ms.  Phase A mixes Zipf-popular
``/run`` hits over the working set (the reads), a few percent never-seen
configs each sent on both connections at once (the writes: compute,
cache writes and single-flight coalescing) and ``/diagnose`` batches of
synthetic failing devices, a third of them with failing outputs for the
causal-chain re-rank.  Every request is timed from its scheduled send
time.  The
generator's own lateness is reported, and a run whose generator fell
behind is invalid rather than slow.  Phase B is a closed loop of hits on
both connections.  Every timing is scaled to reference core speed by the
gauge (``gauge.py``) that runs beside the server.

The references are computed before the server starts, in-process and
without a cache: ``Flow.run().summary()`` of every config the run sends
and the diagnosis context of a freshly computed diagnosis flow.  After
the server stops, every ``/run`` document must carry the ``tests``,
``curve`` and ``adi`` blocks of its config's reference, its ``source``
must fit how it was sent, and every ``/diagnose`` document must equal
``diagnose_batch`` run in-process on the same devices.
"""

from __future__ import annotations

import bisect
import http.client
import itertools
import json
import multiprocessing
import queue
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import checks
import common
import gauge
import layers
from spec import PER_LAYER

#: At most this many persistent connections from the one client process.
CONNECTIONS = 2
#: A run whose generator dispatched later than this (p99) is invalid.
MAX_LAG_P99_MS = 50.0
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: The diagnosis config is fixed -- circuit, flow seed and a PODEM
#: backtrack limit of 20 instead of 200 -- so its cold computation takes
#: about 1.5 s instead of 9 s and does not swing with the workload seed,
#: which draws the failing devices instead.
DIAG_GEN_SEED = 42
DIAG_SEED = 1
DIAG_BACKTRACK_LIMIT = 20
#: Processes computing the reference summaries (the host has two cores).
REFERENCE_WORKERS = 2
#: U candidate pool of the working-set and never-seen configs (the
#: diagnosis config draws from 1024).
WORKING_SET_POOL = 256


@dataclass(frozen=True)
class Sizing:
    """How much traffic: full runs, or the benchmark's own tests."""

    working_set: int                  # distinct primed /run configs
    shape: Tuple[int, int, int]       # their inputs, gates, outputs
    diag_shape: Tuple[int, int, int]  # the diagnosis config's
    rate: float                       # phase-A requests per second
    phase_a: float                    # share of --seconds
    phase_b: float                    # share of --seconds
    boots: int                        # server starts behind setup_s
    devices: int                      # devices per /diagnose batch
    batches: int                      # distinct /diagnose batches
    miss_share: float                 # phase-A slots sending a new config
    diag_share: float                 # phase-A slots sending /diagnose
    min_hits: int                     # phase-A hits a run needs


#: The working set is twice the 128-entry result memo; with the
#: popularity below (``ZIPF_EXPONENT``) about 30% of the hits then decode
#: from disk, so the 90th percentile lies well inside the decodes.  Phase-A slots alternate
#: between the two connections, so at 14 requests per second each sends
#: one request every ~143 ms, well past the ~40 ms delayed-ACK window
#: after its last answer (see the module docstring): a request meets the
#: stall only when the one before it on its connection ran long.  3% of
#: slots send a never-seen config twice ("a few percent" writes).  100
#: hits is the least that leaves ten samples above the reported 90th
#: percentile.
FULL = Sizing(working_set=256, shape=(6, 24, 3), diag_shape=(12, 150, 6),
              rate=14.0, phase_a=0.8, phase_b=0.15, boots=5, devices=32,
              batches=48, miss_share=0.03, diag_share=0.2, min_hits=100)
SMALL = Sizing(working_set=12, shape=(6, 24, 3), diag_shape=(8, 40, 4),
               rate=14.0, phase_a=0.5, phase_b=0.25, boots=2, devices=8,
               batches=4, miss_share=0.05, diag_share=0.2, min_hits=1)

#: Popularity: the config of rank r is drawn with weight 1 / r**0.7, in
#: the 0.64-0.83 range measured for web requests (Breslau et al., "Web
#: caching and Zipf-like distributions", INFOCOM 1999).
ZIPF_EXPONENT = 0.7
#: Draws of the popularity stream that orders the priming (see Plan).
PRIMING_DRAWS = 1000


@dataclass
class Request:
    """One request: what was sent, when it was due, what came back."""

    kind: str       # prime | hit | miss | diagnose
    ref: int        # working-set, miss or batch index; -1: diagnosis config
    path: str
    body: bytes
    phase: str      # cold | A | B
    lane: int = 0   # the phase-A connection that sends it
    due: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Connection:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._http: Optional[http.client.HTTPConnection] = None

    def send(self, request: Request) -> None:
        """POST the request and record the answer (status 0: none)."""
        if self._http is None:
            self._http = http.client.HTTPConnection("127.0.0.1", self.port,
                                                    timeout=60)
        try:
            self._http.request("POST", request.path, body=request.body,
                               headers={"Content-Type": "application/json"})
            response = self._http.getresponse()
            request.payload = response.read()
            request.status = response.status
        except (OSError, http.client.HTTPException):
            self.close()
            request.status = 0
        request.done = time.monotonic()

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


def _get(port: int, path: str) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Server:
    """``repro serve --port 0`` in its own process session."""

    def __init__(self, cache_dir: Path, log: Path,
                 spans: Optional[Path] = None) -> None:
        self.cache_dir = cache_dir
        args = ["--port", "0", "--cache-dir", str(cache_dir)]
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, str(common.HERE / "server_entry.py"),
                       "--spans", str(spans), *args]
        self._log = open(log, "w")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            start_new_session=True)
        try:
            self.port = self._read_port()
            self._await_health(started)
        except BaseException:
            self.stop()
            raise
        #: Process start to a healthy ``/healthz``.
        self.boot = (started, time.monotonic())

    def _read_port(self) -> int:
        ready, __, __ = select.select([self.proc.stdout], [], [],
                                      BOOT_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^\s:]+:(\d+)", line)
        if match is None:
            raise common.BenchError(
                f"the server did not start (first line {line.strip()!r})")
        return int(match.group(1))

    def _await_health(self, started: float) -> None:
        while True:
            try:
                if _get(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() - started > BOOT_TIMEOUT:
                raise common.BenchError("the server never answered /healthz")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise common.BenchError("cannot read the server's peak RSS")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        """SIGTERM: the server drains and exits; killed if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            common.reap_session(self.proc)
            self.proc.communicate()
        finally:
            common.reap_session(self.proc)
            self._log.close()


def _config(name: str, shape: Tuple[int, int, int], gen_seed: int,
            seed: int, pool: int = WORKING_SET_POOL) -> Dict[str, Any]:
    inputs, gates, outputs = shape
    return {"circuit": {"kind": "generator", "name": name,
                        "num_inputs": inputs, "num_gates": gates,
                        "num_outputs": outputs, "gen_seed": gen_seed},
            "u": {"max_vectors": pool},
            "seed": seed}


def _key(config: Dict[str, Any]) -> str:
    return json.dumps(config, sort_keys=True)


class Plan:
    """Everything the traffic is made of, derived from the workload seed."""

    def __init__(self, seed: int, sizing: Sizing) -> None:
        self.seed = seed
        self.sizing = sizing
        rng = random.Random(f"serve_mixed:{seed}")
        # The circuits are fixed, so the cold pass costs the same on every
        # seed; the workload seed picks each config's flow seed.
        self.working_set = [
            _config(f"ws{k}", sizing.shape, 1 + k, rng.randrange(1 << 30))
            for k in range(sizing.working_set)]
        self.diag_config = _config("diag", sizing.diag_shape, DIAG_GEN_SEED,
                                   DIAG_SEED, pool=1024)
        self.diag_config["testgen"] = {
            "backtrack_limit": DIAG_BACKTRACK_LIMIT}
        self.bodies = [json.dumps(c).encode() for c in self.working_set]
        ranks = list(range(sizing.working_set))
        rng.shuffle(ranks)
        self._cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks))
        # Priming sends the configs in the order a stream of popular
        # requests last touched them, so whatever the server keeps in its
        # memo when priming ends is what it would keep under phase A's
        # traffic, and phase A starts in its steady state.
        warm = random.Random(f"serve_mixed:prime:{seed}")
        last = {self.hit(warm, "cold").ref: i for i in range(PRIMING_DRAWS)}
        self.priming_order = sorted(range(sizing.working_set),
                                    key=lambda k: last.get(k, -1))
        #: Never-seen configs, created as phase A draws them; their
        #: generator seeds lie above the working set's range.
        self.misses: List[Dict[str, Any]] = []

    def hit(self, rng: random.Random, phase: str, lane: int = 0) -> Request:
        k = bisect.bisect(self._cumulative,
                          rng.random() * self._cumulative[-1])
        return Request("hit", k, "/run", self.bodies[k], phase, lane)

    def config_of(self, request: Request) -> Dict[str, Any]:
        if request.kind == "miss":
            return self.misses[request.ref]
        if request.ref < 0:
            return self.diag_config
        return self.working_set[request.ref]

    def priming(self) -> List[Request]:
        requests = [Request("prime", k, "/run", self.bodies[k], "cold")
                    for k in self.priming_order]
        requests.append(Request("prime", -1, "/run",
                                json.dumps(self.diag_config).encode(),
                                "cold"))
        return requests

    def first_diagnose(self) -> Request:
        body = {"config": self.diag_config,
                "devices": [{"device": "first", "failing_tests": [0]}]}
        return Request("prime", -1, "/diagnose", json.dumps(body).encode(),
                       "cold")

    def batches(self, context, circ) -> List[Dict[str, Any]]:
        """Seeded ``/diagnose`` bodies: synthetic failing devices drawn
        from the diagnosis config's dictionary."""
        from repro.diagnosis import random_fail_log
        from repro.utils.bitvec import iter_bits

        rng = random.Random(f"serve_mixed:diagnose:{self.seed}")
        bodies = []
        for j in range(self.sizing.batches):
            chain = j % 3 == 0
            log = random_fail_log(context.dictionary, self.sizing.devices,
                                  seed=rng.randrange(1 << 30),
                                  drop_probability=0.1,
                                  circ=circ if chain else None)
            devices = []
            for d in range(log.num_devices):
                record = {"device": log.device_ids[d],
                          "failing_tests": list(
                              iter_bits(log.observed_mask(d)))}
                if chain:
                    record["failing_outputs"] = list(
                        iter_bits(log.failing_outputs[d]))
                devices.append(record)
            bodies.append({"config": self.diag_config, "devices": devices,
                           "max_candidates": 10, "chain": chain})
        return bodies

    def phase_a(self, batches: Sequence[bytes], seconds: float
                ) -> Tuple[List[Request], List[float]]:
        """The open-loop schedule: requests and their send offsets."""
        sizing = self.sizing
        rng = random.Random(f"serve_mixed:a:{self.seed}")
        slots = max(1, int(sizing.rate * seconds))
        # Exact shares at seeded positions, so every run sends the same
        # number of misses and /diagnose.
        misses = round(sizing.miss_share * slots)
        diagnoses = round(sizing.diag_share * slots)
        kinds = (["miss"] * misses + ["diagnose"] * diagnoses
                 + ["hit"] * (slots - misses - diagnoses))
        rng.shuffle(kinds)
        requests: List[Request] = []
        offsets: List[float] = []
        for slot, kind in enumerate(kinds):
            at = slot / sizing.rate
            if kind == "miss":
                k = len(self.misses)
                self.misses.append(_config(f"miss{k}", sizing.shape,
                                           1_000_000 + k,
                                           rng.randrange(1 << 30)))
                body = json.dumps(self.misses[k]).encode()
                # One copy on each connection, at the same time.
                batch = [Request("miss", k, "/run", body, "A", lane)
                         for lane in range(CONNECTIONS)]
            elif kind == "diagnose":
                j = rng.randrange(len(batches))
                batch = [Request("diagnose", j, "/diagnose", batches[j], "A",
                                 slot % CONNECTIONS)]
            else:
                batch = [self.hit(rng, "A", slot % CONNECTIONS)]
            requests += batch
            offsets += [at] * len(batch)
        return requests, offsets


def _in_threads(jobs: Sequence[Tuple[Callable, tuple]]) -> None:
    threads = [threading.Thread(target=target, args=args)
               for target, args in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def send_each(connections: Sequence[Connection],
              requests: Sequence[Request]) -> Tuple[float, float]:
    """Send every request, the list split over the connections, each
    sending its share in turn; returns when it started and ended."""
    def share(k: int) -> None:
        for request in requests[k::len(connections)]:
            request.due = time.monotonic()
            connections[k].send(request)

    started = time.monotonic()
    _in_threads([(share, (k,)) for k in range(len(connections))])
    return started, time.monotonic()


def open_loop(connections: Sequence[Connection], requests: List[Request],
              offsets: Sequence[float]) -> List[float]:
    """Send each request at its offset from now on its lane's connection
    (after the requests before it there); returns how late the generator
    dispatched each (ms)."""
    lanes: List["queue.SimpleQueue[Optional[Request]]"] = [
        queue.SimpleQueue() for __ in connections]

    def drain(k: int) -> None:
        while True:
            request = lanes[k].get()
            if request is None:
                return
            connections[k].send(request)

    threads = [threading.Thread(target=drain, args=(k,))
               for k in range(len(connections))]
    for thread in threads:
        thread.start()
    lags = []
    start = time.monotonic() + 0.01
    try:
        for request, offset in zip(requests, offsets):
            request.due = start + offset
            wait = request.due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            lags.append((time.monotonic() - request.due) * 1000.0)
            lanes[request.lane].put(request)
    finally:
        for lane in lanes:
            lane.put(None)
        for thread in threads:
            thread.join()
    return lags


def closed_loop(connections: Sequence[Connection], plan: Plan,
                seconds: float) -> Tuple[List[Request], Tuple[float, float]]:
    """Each connection sends its next hit as soon as the last returns;
    returns the requests and when the loop started and ended."""
    done: List[List[Request]] = [[] for __ in connections]
    stop_at = time.monotonic() + seconds

    def loop(k: int) -> None:
        rng = random.Random(f"serve_mixed:b:{plan.seed}:{k}")
        while time.monotonic() < stop_at:
            request = plan.hit(rng, "B")
            request.due = time.monotonic()
            connections[k].send(request)
            done[k].append(request)

    started = time.monotonic()
    _in_threads([(loop, (k,)) for k in range(len(connections))])
    return ([r for share in done for r in share],
            (started, time.monotonic()))


_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def scrape(port: int) -> Dict[Tuple[str, Tuple], float]:
    """``GET /metrics`` as ``{(name, labels): value}``, read once the
    server's request accounting (it lands just after each response) has
    settled."""
    deadline = time.monotonic() + 5.0
    while True:
        time.sleep(0.05)
        status, body = _get(port, "/metrics")
        if status != 200:
            raise common.BenchError(f"GET /metrics answered {status}")
        samples = {}
        for line in body.decode().splitlines():
            match = _SAMPLE.match(line)
            if match and not line.startswith("#"):
                name, labels, value = match.groups()
                samples[(name, tuple(sorted(_LABEL.findall(labels or ""))))] \
                    = float(value)
        if total(samples, "repro_http_inflight_requests") == 0 \
                or time.monotonic() > deadline:
            return samples


def total(samples, name: str, **labels: str) -> float:
    """Sum of the samples of ``name`` carrying every given label."""
    want = set(labels.items())
    return sum(value for (family, pairs), value in samples.items()
               if family == name and want <= set(pairs))


def _fresh_summary(config: Dict[str, Any]) -> Dict[str, Any]:
    """``Flow.run().summary()`` of a config, computed without a cache."""
    from repro.flow import Flow, FlowConfig

    return checks.wire(Flow(FlowConfig.from_dict(config)).run().summary())


@dataclass
class Traffic:
    """A run's phase-A schedule and the references its responses must
    equal, all made before the server starts."""

    context: Any                      # DiagnosisContext of a fresh flow
    batches: List[Dict[str, Any]]     # /diagnose bodies
    phase_a: List[Request]
    offsets: List[float]
    summaries: Dict[str, Any]         # _key(config) -> wire summary


def prepare(plan: Plan, seconds: float) -> Traffic:
    """Compute the diagnosis context of a fresh diagnosis flow, draw the
    phase-A schedule from it, and compute the reference summary of every
    config the run sends, all in-process and without a cache."""
    from repro.flow import Flow, FlowConfig
    from repro.flow.diagnose import build_diagnosis_context

    flow = Flow(FlowConfig.from_dict(plan.diag_config))
    context = build_diagnosis_context(flow)
    batches = plan.batches(context, flow.circuit())
    requests, offsets = plan.phase_a(
        [json.dumps(b).encode() for b in batches],
        plan.sizing.phase_a * seconds)
    configs = plan.working_set + plan.misses
    fork = multiprocessing.get_context("fork")
    with fork.Pool(REFERENCE_WORKERS) as pool:
        summaries = pool.map(_fresh_summary, configs, chunksize=8)
        pool.close()
        pool.join()
    references = {_key(c): s for c, s in zip(configs, summaries)}
    references[_key(plan.diag_config)] = checks.wire(flow.run().summary())
    return Traffic(context, batches, requests, offsets, references)


def _measure(server: Server, plan: Plan, traffic: Traffic, seconds: float,
             phases: bool) -> Dict[str, Any]:
    connections = [Connection(server.port) for __ in range(CONNECTIONS)]
    try:
        priming = plan.priming()
        cold = [send_each(connections, priming)]
        if priming[-1].status != 200:
            raise common.BenchError(f"priming the diagnosis config answered "
                                    f"{priming[-1].status}")
        first = plan.first_diagnose()
        cold.append(send_each(connections[:1], [first]))
        data: Dict[str, Any] = {"cold": cold, "requests": priming + [first]}
        if not phases:
            return data
        requests = traffic.phase_a
        before = scrape(server.port)
        lags = open_loop(connections, requests, traffic.offsets)
        after = scrape(server.port)
        closed, window = closed_loop(connections, plan,
                                     plan.sizing.phase_b * seconds)
        data.update(phase_a=requests, phase_b=closed, lags=lags,
                    b_window=window, before=before, after=after)
        data["requests"] = data["requests"] + requests + closed
        return data
    finally:
        for connection in connections:
            connection.close()


#: The ``source`` values each kind of request may come back with; a hit
#: can coalesce onto a concurrent decode of the same config.  Misses are
#: checked per pair: one computed, the other coalesced or cached.
_SOURCES = {"prime": ("computed",), "hit": ("cache", "inflight"),
            "diagnose": ("cache",)}


def _check(plan: Plan, traffic: Traffic, runs: Sequence[Dict[str, Any]]
           ) -> Tuple[List[str], int]:
    """Check every response of every server run against the references;
    returns the problems and the number of wrong or failed requests."""
    from repro.flow.diagnose import diagnosis_document, parse_fail_entries

    problems: List[str] = []
    failed = 0
    expected: Dict[bytes, Any] = {}
    for data in runs:
        miss_sources: Dict[int, List[str]] = defaultdict(list)
        for request in data["requests"]:
            label = (f"{request.phase} {request.kind} {request.path} "
                     f"#{request.ref}")
            found: List[str] = []
            try:
                document = (json.loads(request.payload)
                            if request.status == 200 else None)
            except ValueError:
                document = None
            if document is None:
                found.append(f"{label}: HTTP {request.status or 'no answer'}")
            else:
                source = document.get("source")
                if request.kind == "miss":
                    miss_sources[request.ref].append(source)
                elif source not in _SOURCES[request.kind]:
                    found.append(f"{label}: source {source!r}, expected "
                                 f"{_SOURCES[request.kind]!r}")
                if request.path == "/run":
                    found += checks.check_run_document(
                        document,
                        traffic.summaries[_key(plan.config_of(request))],
                        label)
                else:
                    if request.body not in expected:
                        batch = json.loads(request.body)
                        context = traffic.context
                        log = parse_fail_entries(batch["devices"],
                                                 context.num_tests)
                        expected[request.body] = checks.wire(
                            diagnosis_document(
                                context, log,
                                max_candidates=batch.get("max_candidates",
                                                         10),
                                chain=batch.get("chain", False)))
                    found += checks.check_diagnose_document(
                        document, expected[request.body], label)
            if found:
                failed += 1
                problems += found
        for ref, sources in miss_sources.items():
            if len(sources) != 2 or sources.count("computed") != 1 \
                    or not set(sources) <= {"computed", "inflight", "cache"}:
                failed += 1
                problems.append(f"A miss #{ref}: sources {sources}, expected "
                                f"one 'computed' and one 'inflight' or "
                                f"'cache'")
    return problems, failed


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool) -> common.Outcome:
    sizing = SMALL if small else FULL
    plan = Plan(seed, sizing)
    common.use_source_tree()
    traffic = prepare(plan, seconds)
    with common.workdir(workload) as work, gauge.Gauge(work) as meter:
        boots: List[Tuple[float, float]] = []
        runs: List[Dict[str, Any]] = []
        untraced = None
        if trace:
            # The same cold pass with no wrappers: the overhead's base.
            server = Server(work / "plain", work / "plain.log")
            try:
                untraced = _measure(server, plan, traffic, seconds,
                                    phases=False)
            finally:
                server.stop()
            runs.append(untraced)
        else:
            for k in range(sizing.boots - 1):
                server = Server(work / f"boot{k}", work / f"boot{k}.log")
                server.stop()
                boots.append(server.boot)
        spans_path = work / "spans.json" if trace else None
        server = Server(work / "cache", work / "server.log", spans=spans_path)
        try:
            boots.append(server.boot)
            data = _measure(server, plan, traffic, seconds, phases=True)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        runs.append(data)
        problems, failed = _check(plan, traffic, runs)
        spans = None
        if trace:
            try:
                spans = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                raise common.BenchError(f"no spans from the traced server: "
                                        f"{exc}")
    attempted = sum(len(r["requests"]) for r in runs)
    outcome = common.Outcome(attempted=attempted, failed=failed,
                             problems=problems)
    _summarize(outcome, plan, meter, data, untraced, boots, rss, spans)
    return outcome


def _hit_sources(data: Dict[str, Any]) -> Tuple[int, int, int]:
    """Phase-A hits served from the result memo, decoded from disk, and
    joined onto a decode already running.  Every phase-A ``/run`` leader
    is a disk decode or the computing half of a miss pair."""
    def source(request: Request) -> Optional[str]:
        try:
            return json.loads(request.payload).get("source")
        except (ValueError, AttributeError):
            return None

    served = [r for r in data["phase_a"]
              if r.path == "/run" and r.status == 200]
    hits = sum(r.kind == "hit" for r in served)
    joined = sum(r.kind == "hit" and source(r) == "inflight" for r in served)
    computed = sum(r.kind == "miss" and source(r) == "computed"
                   for r in served)
    leaders = (total(data["after"], "repro_dedupe_leaders_total")
               - total(data["before"], "repro_dedupe_leaders_total"))
    disk = int(leaders) - computed
    return hits - disk - joined, disk, joined


def _summarize(outcome: common.Outcome, plan: Plan, meter: gauge.Gauge,
               data: Dict[str, Any], untraced: Optional[Dict[str, Any]],
               boots: List[Tuple[float, float]], rss: float,
               spans: Optional[Dict[str, Any]]) -> None:
    sizing = plan.sizing

    def latencies(kind: str) -> List[float]:
        """Phase-A latencies at reference core speed."""
        return [1000.0 * meter.scale(r.due, r.done) for r in data["phase_a"]
                if r.kind == kind and r.status == 200]

    def cold_s(run: Dict[str, Any]) -> float:
        return sum(meter.scale(a, b) for a, b in run["cold"])

    def pct(values: List[float], q: float) -> float:
        return common.percentile(values, q) if values else 0.0

    hits, misses, diagnose = (latencies("hit"), latencies("miss"),
                              latencies("diagnose"))
    lag_p99 = pct(data["lags"], 0.99)
    if len(hits) < sizing.min_hits:
        outcome.problems.append(f"only {len(hits)} phase-A hits "
                                f"(need {sizing.min_hits})")
    if lag_p99 > MAX_LAG_P99_MS:
        outcome.problems.append(
            f"run invalid: the load generator fell behind its schedule "
            f"(lag p99 {lag_p99:.1f} ms > {MAX_LAG_P99_MS:.0f} ms)")
    b_ok = sum(r.status == 200 for r in data["phase_b"])
    client = {
        "flow.server.run_hit_p99_ms": pct(hits, 0.99),
        "flow.server.run_miss_p50_ms": pct(misses, 0.5),
        "flow.server.diagnose_p50_ms": pct(diagnose, 0.5),
        "flow.server.diagnose_p90_ms": pct(diagnose, 0.9),
        "flow.server.run_hit_rps": b_ok / meter.scale(*data["b_window"]),
        "bench.gen_lag_p99_ms": lag_p99,
        "bench.failed_frac": outcome.failed / max(outcome.attempted, 1),
    }
    report = outcome.report
    cold_requests = [r for r in data["requests"] if r.phase == "cold"]
    for phase, requests in (("cold", cold_requests), ("A", data["phase_a"]),
                            ("B", data["phase_b"])):
        ok = sum(r.status == 200 for r in requests)
        report.append(f"phase {phase:4s} sent {len(requests):6d}  "
                      f"succeeded {ok:6d}  failed {len(requests) - ok:4d}")
    timed = [r.latency_ms for r in data["phase_a"]
             if r.kind == "hit" and r.status == 200]
    report.append(f"phase A  {len(hits)} hits, {len(misses)} miss requests, "
                  f"{len(diagnose)} /diagnose at {sizing.rate:g}/s; "
                  f"generator lag p99 {lag_p99:.2f} ms; hit p50 "
                  f"{pct(timed, 0.5):.3f} ms, p90 {pct(timed, 0.9):.3f} ms "
                  f"as timed")
    memo, disk, joined = _hit_sources(data)
    report.append(f"phase A  hits served from the memo {memo}, decoded from "
                  f"disk {disk} ({disk / max(len(hits), 1):.1%}), joined a "
                  f"running decode {joined}")
    starts = [meter.scale(a, b) for a, b in boots]
    raw = sum(b - a for a, b in data["cold"])
    report.append(f"cold     {cold_s(data):.3f} s at reference speed "
                  f"({raw:.3f} s as timed) for {sizing.working_set} "
                  f"working-set configs + the diagnosis config; server "
                  f"starts " + ", ".join("%.3f" % b for b in starts) + " s")
    report.append(meter.summary())
    for name, value in client.items():
        unit, better, __ = PER_LAYER[name]
        report.append(f"serve    {name:34s} {value:14.6g} {unit:6s} "
                      f"{better} is better")
    if spans is None:
        outcome.end_to_end = {
            "setup_s": common.median(starts),
            "cold_run_s": cold_s(data),
            "warm_p50_ms": pct(hits, 0.5),
            "warm_p90_ms": pct(hits, 0.9),
            "peak_rss_mb": rss,
        }
        return
    metrics = _server_layers(outcome, data, spans)
    metrics["flow.server.wait_ms"] = (
        sum(timed) / len(timed) - metrics["flow.server.hit_ms"]
        if timed else 0.0)
    metrics["telemetry.trace_overhead"] = cold_s(data) / cold_s(untraced) - 1
    metrics.update(client)
    outcome.layers = metrics


def _server_layers(outcome: common.Outcome, data: Dict[str, Any],
                   spans_doc: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of the traced server run: spans for the layers,
    ``GET /metrics`` deltas around phase A for handler times."""
    if spans_doc.get("left_wrapped"):
        outcome.problems.append(f"server wrappers left installed: "
                                f"{spans_doc['left_wrapped']}")
    spans = spans_doc["spans"]
    metrics = layers.layer_metrics(spans, roots=("flow.server.compute",))
    before, after = data["before"], data["after"]

    def delta(name: str, **labels: str) -> float:
        return total(after, name, **labels) - total(before, name, **labels)

    def mean_ms(route: str, sources: Sequence[str]) -> float:
        count = sum(delta("repro_http_request_seconds_count", route=route,
                          source=s) for s in sources)
        seconds = sum(delta("repro_http_request_seconds_sum", route=route,
                            source=s) for s in sources)
        return 1000.0 * seconds / count if count else 0.0

    metrics["flow.server.hit_ms"] = mean_ms("/run", ("cache",))
    metrics["flow.server.miss_ms"] = mean_ms("/run", ("computed", "inflight"))
    metrics["flow.server.diagnose_ms"] = mean_ms("/diagnose",
                                                 ("cache", "computed"))
    runs = delta("repro_http_requests_total", route="/run")
    leaders = delta("repro_dedupe_leaders_total")
    coalesced = delta("repro_dedupe_coalesced_total")
    metrics["flow.server.memo_hit_ratio"] = ((runs - leaders - coalesced)
                                             / runs if runs else 0.0)
    metrics["flow.dedupe.coalesced"] = coalesced
    metrics["flow.server.shed"] = delta("repro_resilience_shed_total")
    summaries = [json.loads(r.payload)["summary"] for r in data["phase_a"]
                 if r.kind == "diagnose" and r.status == 200]
    devices = sum(s["num_devices"] for s in summaries)
    metrics["diagnosis.unique_signature_ratio"] = (
        sum(s["num_unique_signatures"] for s in summaries) / devices
        if devices else 0.0)
    metrics["diagnosis.compression_ratio"] = (
        sum(s["compression_ratio"] for s in summaries) / len(summaries)
        if summaries else 0.0)
    outcome.report += layers.table_lines(spans)
    rows = layers.self_time_table(spans)
    for prefix in ("flow.server", "diagnosis."):
        present = [row for row in rows
                   if row[0].startswith(prefix) and row[2] > 0]
        outcome.report.append(
            f"accept   {'PASS' if present else 'MISS'} {prefix}* self-time "
            f"rows present ({len(present)}) (informational)")
    return metrics
