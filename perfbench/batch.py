"""Batch workloads: cold_atpg and order_fsim.

Each timed pass runs in a fresh interpreter (``child.py``), because a
user pays every stage on each ``repro run``.  ``setup_s`` is the time from
starting that interpreter to the end of its imports, over several starts.
A pass runs every config cold on a fresh cache directory (``cold_run_s``)
and then repeats itself warm on the cache it filled (``warm_p50_ms`` /
``warm_p90_ms`` over the repeats).  The first pass also runs the output
checks.  With tracing, one more pass runs with the layer
wrappers installed.  Every interval is scaled to reference core speed by
the gauge (``gauge.py``) that runs beside the passes.

The circuits are fixed; the workload seed picks each config's flow seed,
which drives the U candidate pool and the X-fill.  cold_atpg runs four
configs, two circuits per fault model, so that the cost of one pass
varies little from seed to seed.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import common
import gauge
import layers
from spec import PER_LAYER

#: (circuit name, inputs, gates, outputs, generator seed, fault model,
#: U candidate pool).
SHAPES = {
    "cold_atpg": {
        "full": [("atpg_sa42", 12, 120, 6, 42, "stuck_at", 1024),
                 ("atpg_sa43", 12, 120, 6, 43, "stuck_at", 1024),
                 ("atpg_tr42", 10, 120, 5, 42, "transition", 1024),
                 ("atpg_tr43", 10, 120, 5, 43, "transition", 1024)],
        "small": [("atpg_sa", 8, 40, 4, 42, "stuck_at", 512),
                  ("atpg_tr", 6, 30, 3, 42, "transition", 512)],
    },
    "order_fsim": {
        "full": [("order_sa", 64, 5000, 32, 42, "stuck_at", 1024),
                 ("order_tr", 32, 2000, 16, 42, "transition", 1024)],
        "small": [("order_sa", 16, 300, 8, 42, "stuck_at", 256),
                  ("order_tr", 10, 150, 5, 42, "transition", 256)],
    },
}

#: Import-only interpreter starts per run, on top of one per pass.
SETUP_STARTS = 8
#: Share of --seconds each pass spends on warm repeats.
WARM_SHARE = 0.25
WARM_MIN = 10
WARM_MAX = 1000
#: ADI rows the order_fsim check compares with the bigint engine.
SAMPLE_ROWS = 256
CHILD_TIMEOUT = 170.0
#: Shares of traced pass time the workload must spend in its layers.
PODEM_SHARE = 0.90
ADI_FSIM_SHARE = 0.90


def configs(workload: str, seed: int, small: bool) -> List[Dict[str, Any]]:
    """The flow configs the program receives, as JSON documents."""
    rng = random.Random(f"{workload}:{seed}")
    size = "small" if small else "full"
    return [{"circuit": {"kind": "generator", "name": name,
                         "num_inputs": inputs, "num_gates": gates,
                         "num_outputs": outputs, "gen_seed": gen_seed},
             "fault_model": {"name": model},
             "u": {"max_vectors": pool},
             "seed": rng.randrange(1 << 30)}
            for name, inputs, gates, outputs, gen_seed, model, pool
            in SHAPES[workload][size]]


def _spawn(work: Path, tag: str, job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one fresh interpreter; its result plus when it started."""
    job_path = work / f"{tag}.job.json"
    out_path = work / f"{tag}.out.json"
    job_path.write_text(json.dumps(job))
    started = time.monotonic()
    proc = common.run_child([sys.executable, str(common.HERE / "child.py"),
                             "--job", str(job_path), "--out", str(out_path)],
                            CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise common.BenchError(f"{tag} exited {proc.returncode}:\n"
                                f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(out_path.read_text())
    result["started"] = started
    return result


def _digests(result: Dict[str, Any]) -> Dict[str, Dict[str, str]]:
    keys = ("run_key", "adi", "test_set", "orders")
    return {c["name"]: {k: c[k] for k in keys if k in c}
            for c in result["configs"]}


def _quality(result: Dict[str, Any]) -> Dict[str, float]:
    """Test count, mean AVE and fault efficiency of a cold_atpg pass."""
    entries = result["configs"]
    if "tests" not in entries[0]:
        return {}
    effective = sum(c["faults"] - c["undetectable"] for c in entries)
    return {
        "atpg.tests": float(sum(c["tests"] for c in entries)),
        "adi.metrics.ave": sum(c["ave"] for c in entries) / len(entries),
        "atpg.fault_efficiency": (sum(c["detected"] for c in entries)
                                  / effective if effective else 0.0),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool) -> common.Outcome:
    base = {"mode": "run" if workload == "cold_atpg" else "order",
            "configs": configs(workload, seed, small),
            "trace": False, "checks": False,
            "warm_seconds": 0.0 if trace else WARM_SHARE * seconds,
            "warm_min": 0 if trace else WARM_MIN, "warm_max": WARM_MAX,
            "sample_rows": SAMPLE_ROWS, "check_seed": seed}
    with common.workdir(workload) as work, gauge.Gauge(work) as meter:
        setups = ([] if trace else
                  [_spawn(work, f"setup{k}", {"setup_only": True})
                   for k in range(SETUP_STARTS)])
        passes: List[Dict[str, Any]] = []
        started = time.monotonic()
        while True:
            n = len(passes)
            passes.append(_spawn(work, f"pass{n}", dict(
                base, cache_dir=str(work / f"cache{n}"), checks=n == 0)))
            elapsed = time.monotonic() - started
            # Another pass only when it would still end within --seconds.
            if trace or elapsed * (n + 2) / (n + 1) > seconds:
                break
        traced = (_spawn(work, "traced", dict(
            base, cache_dir=str(work / "cache-traced"), trace=True))
            if trace else None)

    outcome = common.Outcome(digests=_digests(passes[0]))
    runs = passes + ([traced] if traced else [])
    for k, result in enumerate(runs):
        outcome.problems += result["problems"]
        if k and _digests(result) != outcome.digests:
            outcome.problems.append(
                f"pass {k} produced other artifacts than pass 0")
    outcome.attempted = sum(len(base["configs"]) * (1 + len(r["warm"]))
                            for r in runs)
    outcome.failed = min(outcome.attempted, len(outcome.problems))
    _report(outcome, workload, seed, small, passes, meter)
    if traced is not None:
        _trace(outcome, workload, _cold_s(meter, passes[0]), traced,
               _cold_s(meter, traced))
    else:
        warm = [1000.0 * meter.scale(a, b)
                for r in passes for a, b in r["warm"]]
        starts = [meter.scale(r["started"], r["ready"])
                  for r in setups + passes]
        outcome.end_to_end = {
            "setup_s": common.median(starts),
            "cold_run_s": common.median([_cold_s(meter, r) for r in passes]),
            "warm_p50_ms": common.percentile(warm, 0.5),
            "warm_p90_ms": common.percentile(warm, 0.9),
            "peak_rss_mb": max(r["rss_mb"] for r in passes),
        }
    return outcome


def _cold_s(meter: gauge.Gauge, result: Dict[str, Any]) -> float:
    """A pass's cold seconds at reference core speed."""
    return sum(meter.scale(a, b) for a, b in result["cold"])


def _report(outcome: common.Outcome, workload: str, seed: int, small: bool,
            passes: List[Dict[str, Any]], meter: gauge.Gauge) -> None:
    lines = outcome.report
    cold = ", ".join("%.3f" % _cold_s(meter, r) for r in passes)
    raw = ", ".join("%.3f" % sum(b - a for a, b in r["cold"]) for r in passes)
    warm = sum(len(r["warm"]) for r in passes)
    lines.append(f"passes   {len(passes)} (cold {cold} s at reference speed, "
                 f"{raw} s as timed), {warm} warm repeats")
    lines.append(meter.summary())
    for c, (a, b) in zip(passes[0]["configs"], passes[0]["cold"]):
        text = (f"config   {c['name']} ({c['model']}): cold "
                f"{meter.scale(a, b):.3f} s, {c['faults']} faults")
        if "tests" in c:
            text += (f", {c['tests']} tests, AVE {c['ave']:.3f}, "
                     f"{c['detected']} detected, {c['undetectable']} "
                     f"proven undetectable")
        lines.append(f"{text}; run key {c['run_key'][:16]}")
    for name, value in _quality(passes[0]).items():
        unit, better, __ = PER_LAYER[name]
        lines.append(f"quality  {name:34s} {value:14.6g} {unit:6s} "
                     f"{better} is better")
    retries = sum(c["retries"] for c in passes[0]["configs"])
    degradations = sum(c["degradations"] for c in passes[0]["configs"])
    lines.append(f"resilience {retries} shard retries, "
                 f"{degradations} degradations")
    if small:
        return
    recorded = (common.load_baseline().get("digests", {})
                .get(workload, {}).get(str(seed)))
    if recorded is None:
        lines.append(f"digests  none recorded for seed {seed}")
    elif recorded == outcome.digests:
        lines.append("digests  unchanged against perfbench/baseline.json")
    else:
        changed = sorted(name for name in outcome.digests
                         if recorded.get(name) != outcome.digests[name])
        lines.append("digests  CHANGED against perfbench/baseline.json: "
                     + ", ".join(changed))


def _trace(outcome: common.Outcome, workload: str, untraced_s: float,
           traced: Dict[str, Any], traced_s: float) -> None:
    """Per-layer metrics of the traced pass.  Layer shares compare span
    times with the pass as timed; the overhead compares scaled times."""
    spans = traced["spans"]
    metrics = layers.layer_metrics(spans, roots=("flow",))
    metrics.update(_quality(traced))
    metrics["fsim.sharded.retries"] = float(
        sum(c["retries"] for c in traced["configs"]))
    metrics["fsim.sharded.degradations"] = float(
        sum(c["degradations"] for c in traced["configs"]))
    metrics["telemetry.trace_overhead"] = traced_s / untraced_s - 1.0
    metrics["bench.failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    outcome.layers = metrics
    outcome.report += layers.table_lines(spans)
    cold = sum(b - a for a, b in traced["cold"])
    if workload == "cold_atpg":
        podem = sum(metrics.get(f"atpg.podem.{status}_s", 0.0)
                    for status in ("success", "undetectable", "aborted"))
        outcome.report.append(_verdict(
            f"atpg.podem.*_s cover {podem / cold:.1%} of traced cold_run_s "
            f"(bar {PODEM_SHARE:.0%})", podem / cold >= PODEM_SHARE))
    else:
        covered = layers.share(spans, ("adi.", "fsim."), cold)
        atpg = sum(v for k, v in metrics.items() if k.startswith("atpg."))
        outcome.report.append(_verdict(
            f"adi.* + fsim.* cover {covered:.1%} of traced cold_run_s "
            f"(bar {ADI_FSIM_SHARE:.0%})", covered >= ADI_FSIM_SHARE))
        outcome.report.append(_verdict(
            f"every atpg.* metric reads zero (sum {atpg:g})", atpg == 0))


def _verdict(text: str, ok: bool) -> str:
    """A line saying whether the workload stresses the layers it was
    chosen for.  It informs; it never fails the run, because the shares
    describe the program on this host rather than a wrong output."""
    return f"accept   {'PASS' if ok else 'MISS'} {text} (informational)"
