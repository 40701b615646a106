"""Warm-path throughput of the flow server: requests/sec from cache.

Boots a :class:`repro.flow.server.FlowServer` on an ephemeral port,
replays the quickstart example's config once cold (computing and
persisting every stage), then measures the warm path — repeated POSTs of
the identical config answered without executing any stage — from
several concurrent client threads.  Records requests/sec to
``results/flow_server_bench.json`` and exits non-zero below the
acceptance bar (50 warm requests/sec) or if any warm response was not
cache-served.

Standalone::

    PYTHONPATH=src python benchmarks/bench_flow_server.py [--seconds S]

Under pytest-benchmark (statistical timings, no acceptance gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_flow_server.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.flow import FlowConfig
from repro.flow.server import FlowServer, start_in_thread

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "results" / "flow_server_bench.json"

#: Acceptance bar: warm requests served from cache per second.
ACCEPTANCE_RPS = 50.0

#: Concurrent client threads during the timed window.
CLIENTS = 4

#: The request counter families recorded from ``GET /metrics``.
COUNTER_FAMILIES = ("repro_http_requests_total",
                    "repro_http_run_served_total",
                    "repro_http_errors_total")


def quickstart_config() -> FlowConfig:
    """The exact config examples/quickstart.py runs."""
    sys.path.insert(0, str(REPO_ROOT / "examples"))
    try:
        from quickstart import CONFIG
    finally:
        sys.path.pop(0)
    return CONFIG


def _post(base: str, body: bytes) -> dict:
    request = urllib.request.Request(base + "/run", data=body)
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def _request_counters(base: str) -> dict:
    """The server's request counters from ``GET /metrics``, keyed by
    series (``'repro_http_run_served_total{source="cache"}'`` ...)."""
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    counters = {}
    for line in text.splitlines():
        if line.startswith(COUNTER_FAMILIES):
            series, value = line.rsplit(" ", 1)
            counters[series] = float(value)
    return counters


def run_benchmark(seconds: float = 2.0) -> dict:
    """Cold request, then a timed warm-path hammering; returns the record."""
    with tempfile.TemporaryDirectory(prefix="flow-server-bench-") as cache:
        server = FlowServer(("127.0.0.1", 0), cache=cache)
        start_in_thread(server)
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            body = json.dumps(quickstart_config().to_dict()).encode()

            cold_started = time.perf_counter()
            cold = _post(base, body)
            cold_seconds = time.perf_counter() - cold_started
            assert cold["source"] == "computed", cold["source"]

            # One warm probe to settle the memo before timing.
            assert _post(base, body)["source"] == "cache"

            non_cache = []
            counts = [0] * CLIENTS
            deadline = time.perf_counter() + seconds

            def hammer(slot: int) -> None:
                while time.perf_counter() < deadline:
                    document = _post(base, body)
                    if document["source"] != "cache":
                        non_cache.append(document["source"])
                    counts[slot] += 1

            timed_started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                list(pool.map(hammer, range(CLIENTS)))
            elapsed = time.perf_counter() - timed_started

            counters = _request_counters(base)
        finally:
            server.shutdown()
            server.server_close()

    warm_requests = sum(counts)
    rps = warm_requests / elapsed if elapsed > 0 else 0.0
    return {
        "benchmark": "flow_server_warm_path",
        "config": "examples/quickstart.py CONFIG",
        "clients": CLIENTS,
        "window_seconds": round(elapsed, 4),
        "cold_seconds": round(cold_seconds, 4),
        "warm_requests": warm_requests,
        "requests_per_sec": round(rps, 1),
        "non_cache_responses": non_cache,
        "server_counters": counters,
        "acceptance_rps": ACCEPTANCE_RPS,
    }


def main(argv=None) -> int:
    """Run, record the JSON, enforce the acceptance bar."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="timed warm-path window (default 2s)")
    args = parser.parse_args(argv)
    record = run_benchmark(seconds=args.seconds)
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"cold request : {record['cold_seconds']:8.3f} s")
    print(f"warm window  : {record['warm_requests']} requests over "
          f"{record['window_seconds']:.2f} s with {record['clients']} "
          f"clients")
    print(f"throughput   : {record['requests_per_sec']:8.1f} requests/sec "
          f"(acceptance >= {ACCEPTANCE_RPS})")
    print(f"recorded    -> {RESULTS_PATH}")
    if record["non_cache_responses"]:
        print(f"FAIL: {len(record['non_cache_responses'])} warm responses "
              f"were not cache-served", file=sys.stderr)
        return 1
    if record["requests_per_sec"] < ACCEPTANCE_RPS:
        print("FAIL: warm-path throughput below acceptance bar",
              file=sys.stderr)
        return 1
    return 0


def test_flow_server_warm_request(benchmark):
    """pytest-benchmark entry: time one warm request end to end."""
    with tempfile.TemporaryDirectory(prefix="flow-server-bench-") as cache:
        server = FlowServer(("127.0.0.1", 0), cache=cache)
        start_in_thread(server)
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            body = json.dumps(quickstart_config().to_dict()).encode()
            _post(base, body)  # prime

            document = benchmark(lambda: _post(base, body))
        finally:
            server.shutdown()
            server.server_close()
    assert document["source"] == "cache"


if __name__ == "__main__":
    sys.exit(main())
