"""One pass of a batch workload, in a fresh interpreter.

    python3 perfbench/child.py --job JOB.json --out RESULT.json

``batch.py`` starts one of these per timed pass, because a user pays
every stage -- interpreter start and imports included -- on each
``repro run``.  The job names the flow configs, a fresh cache directory,
whether to trace the pass, how long to repeat it warm, and whether to run
the output checks.  Every timed window wraps public ``repro.flow`` calls;
the checks run after them.  Windows are ``time.monotonic()`` intervals,
which the benchmark scales to reference core speed with its gauge.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict


def _run(flow):
    return flow.run()


def _orders(flow):
    from repro.adi import ORDERS

    return {name: flow.permutation(name) for name in ORDERS}


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (a sharded
    pool worker), in MB."""
    gc.collect()  # runs the finalizer that reaps an idle worker pool
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_pass(job: Dict[str, Any]) -> Dict[str, Any]:
    """The cold pass, its warm repeats, digests and (optionally) checks."""
    from repro.flow import ArtifactCache, Flow, FlowConfig
    from repro.resilience import context as resilience

    import checks
    import layers

    run_mode = job["mode"] == "run"
    op = _run if run_mode else _orders
    configs = [FlowConfig.from_dict(c) for c in job["configs"]]
    cache = ArtifactCache(job["cache_dir"])
    tracer = layers.Tracer() if job["trace"] else None
    if tracer is not None:
        layers.install(tracer)
    flows, outputs, events, cold = [], [], [], []
    for config in configs:
        flow = Flow(config, cache=cache)
        with resilience.collecting() as collected:
            started = time.monotonic()
            with tracer.span("flow") if tracer else nullcontext():
                outputs.append(op(flow))
            cold.append((started, time.monotonic()))
        flows.append(flow)
        events.append(collected)
    problems = []
    if tracer is not None:
        left = tracer.uninstall()
        if left:
            problems.append(f"wrappers left installed: {left}")

    # Each warm repeat runs every config again on the filled cache.
    warm = []
    deadline = time.monotonic() + job["warm_seconds"]
    while len(warm) < job["warm_min"] or (
            time.monotonic() < deadline and len(warm) < job["warm_max"]):
        started = time.monotonic()
        for config in configs:
            op(Flow(config, cache=cache))
        warm.append((started, time.monotonic()))
    rss = _peak_rss_mb()

    entries = []
    for config, flow, out, collected in zip(configs, flows, outputs, events):
        absorbed = out.resilience if run_mode else collected.summary()
        label = config.circuit.name
        entry = {"name": label, "model": config.fault_model.name,
                 "faults": len(flow.faults()), "run_key": flow.run_key(),
                 "adi": checks.adi_digest(flow.adi()),
                 "retries": absorbed["retries"],
                 "degradations": absorbed["degradations"]}
        if run_mode:
            tests = out.tests
            entry.update(tests=tests.num_tests, ave=out.report.ave,
                         detected=tests.num_detected,
                         undetectable=tests.num_undetectable,
                         test_set=checks.tests_digest(tests.tests))
        else:
            entry["orders"] = checks.orders_digest(out)
        entries.append(entry)
        if not job["checks"]:
            continue
        if run_mode:
            problems += checks.check_test_set(flow.circuit(), out.tests, label)
        else:
            problems += checks.check_orders(out, entry["faults"], label)
            problems += checks.check_adi_matrix(flow, job["sample_rows"],
                                                job["check_seed"], label)
    return {"cold": cold, "warm": warm, "rss_mb": rss,
            "configs": entries, "problems": problems,
            "spans": tracer.snapshot() if tracer else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--job", required=True,
                        help="job document written by batch.py")
    parser.add_argument("--out", required=True,
                        help="where to write the result document")
    args = parser.parse_args(argv)
    job = json.loads(Path(args.job).read_text())
    import repro.flow.cli  # noqa: F401 -- what every ``repro run`` imports

    result: Dict[str, Any] = {"ready": time.monotonic()}
    if not job.get("setup_only"):
        result.update(run_pass(job))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
