"""The repository benchmark: one command runs a workload and checks it.

    python3 perfbench/run.py --workload WORKLOAD [--seed N] [--seconds S] [--trace 0|1]

Workloads: ``cold_atpg``, ``order_fsim`` and ``serve_mixed`` (see
``spec.py`` and ``README.md``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric of a separate traced pass with ``--trace 1``.  The lines before it
are a readable report: the host, what ran, every metric with its unit and
direction, and any failed output check.  The exit code is non-zero when
an output check fails or no measurement could be made.

Other modes: ``--describe`` prints the workloads and the layer -> metric
map; ``--write-manifest`` regenerates ``BENCHMARK.json`` from
``spec.py``; ``--record-digests`` stores the run's artifact digests for
its seed in ``perfbench/baseline.json``; ``--small`` shrinks every
workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict

import batch
import common
import serve
import spec


def result_line(outcome: common.Outcome, trace: bool) -> Dict[str, Any]:
    """The JSON object the last line of output carries."""
    table = spec.PER_LAYER if trace else spec.END_TO_END
    values = outcome.layers if trace else outcome.end_to_end
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": table[name][0]} for name in table},
    }


def _validate(outcome: common.Outcome, trace: bool) -> None:
    values = outcome.layers if trace else outcome.end_to_end
    for name, value in list(values.items()):
        if not math.isfinite(value):
            outcome.problems.append(f"metric {name} is not finite")
            values[name] = 0.0
    if not trace:
        for name in spec.END_TO_END:
            if values.get(name, 0.0) <= 0.0:
                outcome.problems.append(f"end-to-end metric {name} is not "
                                        f"positive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help=f"workload seed (default {spec.DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of a traced pass")
    parser.add_argument("--small", action="store_true",
                        help="shrink the workload (the benchmark's tests)")
    parser.add_argument("--describe", action="store_true",
                        help="print workloads, metrics and the layer map")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's artifact digests for its "
                             "seed in perfbench/baseline.json")
    args = parser.parse_args(argv)
    if args.describe:
        print("\n".join(spec.describe()))
        return 0
    if args.write_manifest:
        (common.ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {common.SRC / 'repro'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    runner = serve.run if args.workload == "serve_mixed" else batch.run
    trace = bool(args.trace)
    try:
        outcome = runner(args.workload, args.seed, args.seconds, trace,
                         args.small)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _validate(outcome, trace)
    line = result_line(outcome, trace)
    table = spec.PER_LAYER if trace else spec.END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}"
          + ("  small" if args.small else ""))
    print("host     " + "  ".join(f"{key} {value}" for key, value
                                  in common.environment().items()))
    for text in outcome.report:
        print(text)
    for name, entry in line["metrics"].items():
        print(f"metric   {name:34s} {entry['value']:14.6g} "
              f"{entry['unit']:6s} {table[name][1]} is better")
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED {problem}")
    if len(outcome.problems) > 20:
        print(f"CHECK FAILED ... and {len(outcome.problems) - 20} more")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}: "
          f"{'correct' if outcome.correct else 'NOT correct'}")
    if args.record_digests and outcome.digests and not args.small:
        common.record_digests(args.workload, args.seed, outcome.digests)
    print(json.dumps(line))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
