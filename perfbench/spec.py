"""What the benchmark measures: workloads, metrics, seeds and the layer map.

This module is the single source of truth.  ``BENCHMARK.json`` at the
repository root is generated from it (``python3 perfbench/run.py
--write-manifest``), every run's result line is built from it, and
``python3 perfbench/run.py --describe`` prints the layer -> end-to-end
map below.

The end-to-end metrics are the ones every workload reports, because the
result line of every run carries each of them:

* ``setup_s``      -- set-up time, median of several set-ups in one run;
* ``cold_run_s``   -- one pass of cold computation, median over passes;
* ``warm_p50_ms``  -- median latency of a cache-served repeat;
* ``warm_p90_ms``  -- its 90th percentile;
* ``peak_rss_mb``  -- peak resident memory of the program.

What "set-up", "pass" and "repeat" mean on each workload is in
``WORKLOADS``.  Every timing is in seconds at one reference core speed:
the gauge (``gauge.py``) reads the speed of the cores the program runs on
while it runs, and each measured interval is scaled by it, because the
shared hosts this runs on change core speed by up to 1.5x for minutes at
a time.  Metrics that exist on one workload only (test count, AVE,
fault efficiency, miss and ``/diagnose`` latency, closed-loop throughput)
are printed in every run's report and recorded in the traced run's
per-layer table, at the layer that produces them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: The workload seed runs use unless told otherwise; its artifact digests
#: are recorded in ``perfbench/baseline.json``.
DEFAULT_SEED = 2005

#: Never used while tuning the benchmark; claims are re-checked on it.
HELD_OUT_SEED = 4243

#: Seconds one run measures (the ``--seconds`` default).
RUN_SECONDS = 12

WORKLOADS: Dict[str, Dict[str, str]] = {
    "cold_atpg": {
        "why": "cold repro run of two 120-gate stuck-at and two 120-gate "
               "transition configs: PODEM is ~95% of it, so ATPG changes "
               "show and fsim or server changes should not",
        "setup": "interpreter start plus imports, median of several starts",
        "pass": "cold Flow(config, cache=<fresh dir>).run() of the four "
                "configs in a fresh interpreter",
        "repeat": "warm Flow(config, cache=<the filled dir>).run() of the "
                  "four configs",
    },
    "order_fsim": {
        "why": "repro order on 5000- and 2000-gate circuits with all six "
               "orders: U selection and ADI fault simulation dominate and "
               "ATPG does no work",
        "setup": "interpreter start plus imports, median of several starts",
        "pass": "cold circuit, faults, U, ADI and all six orders of both "
                "configs in a fresh interpreter",
        "repeat": "warm all-six-orders pass of both configs",
    },
    "serve_mixed": {
        "why": "repro serve under open-loop hits, misses and /diagnose "
               "over a working set twice the result memo: server, memo, "
               "cache, serialize and diagnosis layers do the work",
        "setup": "server start until /healthz answers, median of starts",
        "pass": "cold /run of the working set and the diagnosis config, "
                "and the first /diagnose, through the server",
        "repeat": "phase-A /run hit from the memo or from disk, sent by a "
                  "stock keep-alive client, timed from its scheduled send",
    },
}

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Peak RSS repeats within 1% across seeds, so 0.05 is several times its
#: spread.  The timings take the largest bound allowed, 0.25; their
#: measured spreads are in ``README.md``.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "cold_run_s": ("s", "lower", 0.25),
    "warm_p50_ms": ("ms", "lower", 0.25),
    "warm_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: name -> (unit, better, what it moves): the end-to-end metric and
#: workload the layer metric should move.  ``_s`` metrics are self
#: seconds summed over one traced pass; ``_ms`` metrics are means per
#: request.  Layers a workload does not exercise read 0.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "atpg.podem.success_s": ("s", "lower", "cold_run_s on cold_atpg"),
    "atpg.podem.undetectable_s": ("s", "lower", "cold_run_s on cold_atpg"),
    "atpg.podem.aborted_s": ("s", "lower", "cold_run_s on cold_atpg"),
    "atpg.podem.calls": ("count", "lower", "cold_run_s on cold_atpg"),
    "atpg.podem.backtracks": ("count", "lower", "cold_run_s on cold_atpg"),
    "atpg.podem.useful_ratio": ("ratio", "higher",
                                "atpg.fault_efficiency and cold_run_s on "
                                "cold_atpg"),
    "atpg.engine.self_s": ("s", "lower", "cold_run_s on cold_atpg"),
    "atpg.tests": ("count", "lower", "test-set size on cold_atpg"),
    "atpg.fault_efficiency": ("ratio", "higher",
                              "detected / (faults - proven undetectable) "
                              "on cold_atpg"),
    "adi.metrics.ave": ("tests", "lower", "mean AVE on cold_atpg"),
    "fsim.drop.s": ("s", "lower", "cold_run_s on cold_atpg (small)"),
    "fsim.drop.calls": ("count", "lower", "cold_run_s on cold_atpg (small)"),
    "fsim.matrix.s": ("s", "lower",
                      "cold_run_s on order_fsim and serve_mixed"),
    "fsim.matrix.calls": ("count", "lower", "cold_run_s on order_fsim"),
    "fsim.fault_patterns": ("count", "lower", "cold_run_s on order_fsim"),
    "fsim.fault_patterns_per_s": ("1/s", "higher",
                                  "cold_run_s on order_fsim"),
    "fsim.sharded.first_call_s": ("s", "lower", "cold_run_s on order_fsim"),
    "fsim.sharded.retries": ("count", "lower", "bench.failed_frac"),
    "fsim.sharded.degradations": ("count", "lower", "bench.failed_frac"),
    "adi.sampling.s": ("s", "lower", "cold_run_s on order_fsim"),
    "adi.sampling.useful_ratio": ("ratio", "higher",
                                  "cold_run_s on order_fsim"),
    "adi.index.s": ("s", "lower", "cold_run_s on order_fsim"),
    "adi.ordering.static_s": ("s", "lower", "cold_run_s on order_fsim"),
    "adi.ordering.dynamic_s": ("s", "lower", "cold_run_s on order_fsim"),
    "adi.metrics.s": ("s", "lower", "cold_run_s on cold_atpg (small)"),
    "circuit.s": ("s", "lower", "cold_run_s on order_fsim"),
    "faults.s": ("s", "lower", "cold_run_s on order_fsim"),
    "faults.count": ("count", "lower", "cold_run_s on order_fsim"),
    "flow.self_s": ("s", "lower", "cold_run_s (Flow glue outside any layer)"),
    "flow.cache.get_s": ("s", "lower", "warm_p50_ms on every workload"),
    "flow.cache.hit_ratio": ("ratio", "higher",
                             "warm_p50_ms on serve_mixed"),
    "flow.cache.put_s": ("s", "lower", "cold_run_s on serve_mixed"),
    "flow.cache.bytes_written": ("bytes", "lower",
                                 "cold_run_s on serve_mixed"),
    "flow.serialize.decode_s": ("s", "lower",
                                "warm_p50_ms on every workload"),
    "flow.serialize.encode_s": ("s", "lower",
                                "cold_run_s on serve_mixed, cold_atpg "
                                "(small)"),
    "flow.server.hit_ms": ("ms", "lower", "warm_p50_ms on serve_mixed"),
    "flow.server.miss_ms": ("ms", "lower",
                            "flow.server.run_miss_p50_ms on serve_mixed"),
    "flow.server.diagnose_ms": ("ms", "lower",
                                "flow.server.diagnose_p50_ms on "
                                "serve_mixed"),
    "flow.server.wait_ms": ("ms", "lower", "warm_p90_ms on serve_mixed"),
    "flow.server.memo_hit_ratio": ("ratio", "higher",
                                   "warm_p50_ms on serve_mixed"),
    "flow.server.run_hit_p99_ms": ("ms", "lower",
                                   "client /run hit tail on serve_mixed"),
    "flow.server.run_miss_p50_ms": ("ms", "lower",
                                    "client /run miss latency on "
                                    "serve_mixed"),
    "flow.server.diagnose_p50_ms": ("ms", "lower",
                                    "client /diagnose latency on "
                                    "serve_mixed"),
    "flow.server.diagnose_p90_ms": ("ms", "lower",
                                    "client /diagnose tail on serve_mixed"),
    "flow.server.run_hit_rps": ("1/s", "higher",
                                "closed-loop hit throughput on serve_mixed"),
    "flow.server.shed": ("count", "lower", "bench.failed_frac"),
    "flow.dedupe.coalesced": ("count", "higher",
                              "flow.server.run_miss_p50_ms on serve_mixed"),
    "diagnosis.context_s": ("s", "lower", "cold_run_s on serve_mixed"),
    "diagnosis.parse_s": ("s", "lower",
                          "flow.server.diagnose_p50_ms on serve_mixed"),
    "diagnosis.batch_s": ("s", "lower",
                          "flow.server.diagnose_p50_ms on serve_mixed"),
    "diagnosis.render_s": ("s", "lower",
                           "flow.server.diagnose_p50_ms on serve_mixed"),
    "diagnosis.unique_signature_ratio": ("ratio", "lower",
                                         "flow.server.diagnose_p50_ms on "
                                         "serve_mixed"),
    "diagnosis.compression_ratio": ("ratio", "higher",
                                    "flow.server.diagnose_p50_ms on "
                                    "serve_mixed"),
    "telemetry.trace_overhead": ("ratio", "lower",
                                 "traced / untraced cold_run_s - 1"),
    "trace.layer_coverage": ("ratio", "higher",
                             "share of traced program time inside named "
                             "layers"),
    "bench.gen_lag_p99_ms": ("ms", "lower",
                             "run validity on serve_mixed"),
    "bench.failed_frac": ("ratio", "lower",
                          "(failed + refused + wrong) / attempted"),
}


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, __) in PER_LAYER.items()
        ],
    }


def describe() -> List[str]:
    """The workloads, metrics and layer -> end-to-end map, as text."""
    lines = ["workloads:"]
    for name, spec in WORKLOADS.items():
        lines.append(f"  {name}: {spec['why']}")
        for key in ("setup", "pass", "repeat"):
            lines.append(f"    {key:7s} {spec[key]}")
    lines.append("end-to-end metrics (every workload):")
    for name, (unit, better, bound) in END_TO_END.items():
        lines.append(f"  {name:14s} {unit:4s} {better:6s} bound {bound:.2f}")
    lines.append("per-layer metrics (traced run) and what they move:")
    for name, (unit, better, moves) in PER_LAYER.items():
        lines.append(f"  {name:34s} {unit:6s} {better:6s} {moves}")
    lines.append(f"seeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED}")
    return lines
