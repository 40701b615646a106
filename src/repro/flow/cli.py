"""The ``repro`` command line: run flows, inspect stages, manage the cache.

Usage (installed console script, or ``python -m repro``)::

    repro run     --circuit irs208 --order 0dynm          # full pipeline
    repro run     --config flow.json --json               # declarative + JSON
    repro run     --circuit irs208 --trace                # + span tree & JSON
    repro order   --circuit irs208 --order dynm           # just the permutation
    repro testgen --circuit irs208 --write-tests t.txt    # tests + pattern file
    repro report  --circuit irs208 --order 0dynm          # coverage curve / AVE
    repro diagnose --circuit irs208 --devices 500         # batch diagnosis
    repro serve   --port 8321                             # flow-as-a-service
    repro cache stats                                     # artifact inventory
    repro cache prune --stage testgen                     # drop one stage
    repro cache prune --max-bytes 10000000                # LRU size bound

Every run subcommand accepts the same configuration surface: ``--config``
loads a :class:`repro.flow.config.FlowConfig` JSON document, and
individual flags override single knobs on top of it, so a checked-in
config plus one ``--order`` flag expresses a whole comparison.  With
``--json`` the output is the stable ``repro.flow/v1`` schema (see
:meth:`repro.flow.flow.FlowResult.summary`); without it, a human-readable
text summary.  ``--dump-config`` prints the fully resolved config and
exits — the reproducibility receipt to commit next to results.

Artifacts go to the content-addressed cache under ``results/cache`` by
default (``--cache-dir`` overrides, ``--no-cache`` disables), so a
second ``repro run`` of the same config answers from disk.

``--trace`` activates :mod:`repro.telemetry` span collection for the
run: the text output gains an indented per-stage/per-span wall-time
tree, and the full tree is persisted as
``results/trace_<fingerprint>.json`` (``--trace-dir`` overrides the
directory).  The stage durations in the tree are the *same
measurements* the run summary reports under ``timings`` — one span, two
views.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.flow.cache import ArtifactCache, default_cache_root
from repro.flow.config import (
    AdiSpec,
    CircuitSpec,
    FaultModelSpec,
    FlowConfig,
    OrderSpec,
    TestGenSpec,
    USpec,
)
from repro.flow.flow import Flow
from repro.telemetry import enabled, set_enabled, tracing


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared configuration surface of every run-style subcommand."""
    group = parser.add_argument_group("flow configuration")
    group.add_argument("--config", metavar="FILE",
                       help="FlowConfig JSON document to start from")
    group.add_argument("--circuit", metavar="NAME",
                       help="suite circuit name (kind=suite)")
    group.add_argument("--bench", metavar="PATH",
                       help=".bench netlist path (kind=bench)")
    group.add_argument("--generate", metavar="I,G,O",
                       help="synthesize a circuit with I inputs, G gates, "
                            "O outputs (kind=generator)")
    group.add_argument("--gen-seed", type=int, metavar="N",
                       help="generator seed (kind=generator, default 0)")
    group.add_argument("--name", metavar="NAME",
                       help="circuit name for --bench/--generate")
    group.add_argument("--fault-model", metavar="MODEL",
                       help="registered fault model (stuck_at, transition)")
    group.add_argument("--no-collapse", action="store_true",
                       help="target the full fault universe, not the "
                            "collapsed list")
    group.add_argument("--seed", type=int, metavar="N",
                       help="the one random seed of the run")
    group.add_argument("--order", metavar="NAME",
                       help="fault order fed to the ATPG (orig, decr, "
                            "0decr, incr0, dynm, 0dynm)")
    group.add_argument("--adi-mode", metavar="MODE",
                       help="ADI summary mode: minimum or average")
    group.add_argument("--max-vectors", type=int, metavar="N",
                       help="size of the random candidate pool for U")
    group.add_argument("--target-coverage", type=float, metavar="F",
                       help="U-selection truncation coverage in (0, 1]")
    group.add_argument("--prune-useless", action="store_true",
                       help="drop vectors of U that detect nothing new")
    group.add_argument("--backtrack-limit", type=int, metavar="N",
                       help="PODEM backtrack limit per fault")
    group.add_argument("--fill", metavar="POLICY",
                       help="X-fill policy: random, zero or one")
    group.add_argument("--backend", metavar="NAME",
                       help="fault-simulation backend (bigint, numpy, "
                            "parallel, auto)")
    group.add_argument("--cache-dir", metavar="DIR",
                       help=f"artifact cache root (default "
                            f"{default_cache_root()})")
    group.add_argument("--no-cache", action="store_true",
                       help="in-memory memoization only, no disk artifacts")
    group.add_argument("--dump-config", action="store_true",
                       help="print the resolved FlowConfig JSON and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--out", metavar="FILE",
                        help="write the output document to FILE as well")
    parser.add_argument("--trace", action="store_true",
                        help="collect a telemetry span trace: print the "
                             "per-stage wall-time tree and write "
                             "trace_<fingerprint>.json")
    parser.add_argument("--trace-dir", metavar="DIR", default="results",
                        help="directory for the --trace JSON "
                             "(default: results)")


def build_config(args: argparse.Namespace) -> FlowConfig:
    """Resolve ``--config`` plus individual flag overrides to a FlowConfig."""
    config = (FlowConfig.from_json(args.config) if args.config
              else FlowConfig())

    circuit = config.circuit
    sources = [s for s in (args.circuit, args.bench, args.generate) if s]
    if len(sources) > 1:
        raise ReproError(
            "--circuit, --bench and --generate are mutually exclusive"
        )
    if args.circuit:
        circuit = CircuitSpec(kind="suite", name=args.circuit)
    elif args.bench:
        circuit = CircuitSpec(kind="bench", path=args.bench,
                              name=args.name or Path(args.bench).stem)
    elif args.generate:
        try:
            inputs, gates, outputs = (
                int(v) for v in args.generate.split(",")
            )
        except ValueError:
            raise ReproError(
                f"--generate expects I,G,O integers, got {args.generate!r}"
            )
        circuit = CircuitSpec(
            kind="generator", name=args.name or "generated",
            num_inputs=inputs, num_gates=gates, num_outputs=outputs,
            gen_seed=args.gen_seed if args.gen_seed is not None else 0,
        )
    elif args.gen_seed is not None:
        circuit = dataclasses.replace(circuit, gen_seed=args.gen_seed)

    fault_model = config.fault_model
    if args.fault_model:
        fault_model = dataclasses.replace(fault_model, name=args.fault_model)
    if args.no_collapse:
        fault_model = dataclasses.replace(fault_model, collapse=False)

    u = config.u
    if args.max_vectors is not None:
        u = dataclasses.replace(u, max_vectors=args.max_vectors)
    if args.target_coverage is not None:
        u = dataclasses.replace(u, target_coverage=args.target_coverage)
    if args.prune_useless:
        u = dataclasses.replace(u, prune_useless=True)

    adi = config.adi
    if args.adi_mode:
        adi = AdiSpec(mode=args.adi_mode)

    order = config.order
    if args.order:
        order = OrderSpec(name=args.order)

    testgen = config.testgen
    if args.backtrack_limit is not None:
        testgen = dataclasses.replace(
            testgen, backtrack_limit=args.backtrack_limit
        )
    if args.fill:
        testgen = dataclasses.replace(testgen, fill=args.fill)

    backend = config.backend
    if args.backend:
        backend = dataclasses.replace(backend, fsim=args.backend)

    seed = args.seed if args.seed is not None else config.seed
    return FlowConfig(
        circuit=circuit, fault_model=fault_model, u=u, adi=adi,
        order=order, testgen=testgen, backend=backend, seed=seed,
        version=config.version,
    ).validate()


def _make_flow(args: argparse.Namespace, config: FlowConfig) -> Flow:
    cache = None if args.no_cache else (args.cache_dir or None)
    if cache is None and not args.no_cache:
        cache = default_cache_root()
    return Flow(config, cache=cache)


def _emit(text: str, args: argparse.Namespace) -> None:
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")


def _traced_render(args: argparse.Namespace, flow: Flow,
                   config: FlowConfig, render):
    """Run ``render`` under a trace collector; persist and append the tree.

    ``--trace`` is an explicit request, so span recording is switched on
    for the duration even under ``REPRO_TELEMETRY=off`` (and restored
    after).  The tree lands in ``<trace-dir>/trace_<fingerprint>.json``;
    its stage durations are the very measurements the run summary
    reports under ``timings``.
    """
    was_enabled = enabled()
    if not was_enabled:
        set_enabled(True)
    try:
        with tracing() as collector:
            document, text = render(flow, config)
    finally:
        if not was_enabled:
            set_enabled(False)
    fingerprint = config.fingerprint()
    trace_document = {
        "schema": "repro.flow.trace/v1",
        "config_fingerprint": fingerprint,
        **collector.to_dict(),
    }
    path = Path(args.trace_dir) / f"trace_{fingerprint}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace_document, indent=1) + "\n")
    text = (f"{text}\n\ntrace ({collector.total_seconds() * 1000.0:.2f} ms "
            f"total)\n{collector.format_tree()}\ntrace written to {path}")
    return document, text


def _run_style_command(args: argparse.Namespace,
                       render) -> int:
    """Shared driver of run/order/testgen/report: config → flow → output."""
    config = build_config(args)
    if args.dump_config:
        _emit(config.to_json(), args)
        return 0
    flow = _make_flow(args, config)
    if args.trace:
        document, text = _traced_render(args, flow, config, render)
    else:
        document, text = render(flow, config)
    if getattr(args, "write_tests", None):
        _write_tests(flow, args.write_tests)
    _emit(json.dumps(document, indent=1) if args.json else text, args)
    return 0


# -- subcommand renderers -----------------------------------------------------

def _render_run(flow: Flow, config: FlowConfig):
    result = flow.run()
    summary = result.summary()
    lines = [
        f"circuit    {result.circuit.name}: {result.circuit.num_inputs} "
        f"inputs, {result.circuit.num_gates} gates, "
        f"{result.circuit.num_outputs} outputs",
        f"faults     {len(result.faults)} ({config.fault_model.name}"
        f"{', collapsed' if config.fault_model.collapse else ''})",
        f"U          {result.selection.num_vectors} vectors, coverage "
        f"{result.selection.coverage:.1%}",
        f"ADI        {summary['adi']['min']} .. {summary['adi']['max']}",
        f"order      {result.order_name}",
        f"tests      {result.tests.num_tests}, fault coverage "
        f"{result.tests.fault_coverage():.1%}, efficiency "
        f"{result.tests.fault_efficiency():.1%} "
        f"({summary['tests']['detected']} detected, "
        f"{summary['tests']['undetectable']} undetectable, "
        f"{summary['tests']['aborted']} aborted)",
        f"AVE        {result.report.ave:.3f}",
        "stages     " + ", ".join(
            f"{info.stage}={info.source}" for info in result.stages
        ),
    ]
    return summary, "\n".join(lines)


def _render_order(flow: Flow, config: FlowConfig):
    permutation = flow.permutation()
    adi = flow.adi()
    document = {
        "schema": "repro.flow.order/v1",
        "order": config.order.name,
        "num_faults": len(permutation),
        "permutation": permutation,
    }
    text = (f"order {config.order.name} over {len(permutation)} faults "
            f"(ADI {adi.adi_min_max()[0]} .. {adi.adi_min_max()[1]}):\n"
            + " ".join(str(i) for i in permutation))
    return document, text


def _render_testgen(flow: Flow, config: FlowConfig):
    result = flow.tests()
    document = {
        "schema": "repro.flow.testgen/v1",
        "order": config.order.name,
        "num_tests": result.num_tests,
        "fault_coverage": result.fault_coverage(),
        "fault_efficiency": result.fault_efficiency(),
        "num_detected": result.num_detected,
        "num_undetectable": result.num_undetectable,
        "num_aborted": result.num_aborted,
        "podem_calls": result.podem_calls,
        "backtracks": result.backtracks,
    }
    text = (f"{result.num_tests} tests under order {config.order.name}: "
            f"{result.num_detected} detected, "
            f"{result.num_undetectable} undetectable, "
            f"{result.num_aborted} aborted "
            f"({result.fault_coverage():.1%} coverage, "
            f"{result.fault_efficiency():.1%} efficiency)")
    return document, text


def _render_report(flow: Flow, config: FlowConfig):
    report = flow.report()
    document = {
        "schema": "repro.flow.report/v1",
        "order": config.order.name,
        "num_tests": report.num_tests,
        "num_detected": report.num_detected,
        "total_faults": report.total_faults,
        "ave": report.ave,
        "curve": list(report.curve),
    }
    text = (f"coverage curve under order {config.order.name}: "
            f"{report.num_detected}/{report.total_faults} faults over "
            f"{report.num_tests} tests, AVE {report.ave:.3f}")
    return document, text


def _render_diagnose(flow: Flow, config: FlowConfig,
                     args: argparse.Namespace):
    """``repro diagnose``: batched diagnosis of a fail log (or synthetic).

    Builds the config's diagnosis context (dictionary + compressed form
    + chain ranker), reads ``--fail-log`` or synthesizes ``--devices``
    failing chips, and runs the batched pipeline once.
    """
    from repro.diagnosis import FailLog, random_fail_log
    from repro.flow.diagnose import (
        build_diagnosis_context,
        diagnosis_document,
    )

    context = build_diagnosis_context(flow)
    if args.fail_log:
        log = FailLog.from_jsonl(args.fail_log)
        if log.num_tests != context.num_tests:
            raise ReproError(
                f"fail log {args.fail_log} covers {log.num_tests} tests, "
                f"the config's dictionary {context.num_tests}"
            )
    else:
        log = random_fail_log(
            context.dictionary, args.devices,
            seed=args.log_seed,
            drop_probability=args.drop_probability,
            circ=flow.circuit() if args.chain else None,
        )
    if args.write_fail_log:
        log.write_jsonl(args.write_fail_log)
    document = diagnosis_document(
        context, log, max_candidates=args.top, chain=args.chain,
    )
    summary = document["summary"]
    lines = [
        f"devices    {summary['num_devices']} "
        f"({summary['num_unique_signatures']} unique signatures)",
        f"dictionary {summary['num_faults']} faults over "
        f"{summary['num_tests']} tests, {summary['num_classes']} "
        f"response classes (compression "
        f"{summary['compression_ratio']:.2f}x)",
        f"throughput {summary['devices_per_sec']:.0f} devices/sec "
        f"({summary['seconds'] * 1000.0:.1f} ms)",
    ]
    if args.chain:
        lines.append(f"chain      re-ranked {summary['chain_devices']} "
                     f"device(s) by backward-cone evidence")
    if "accuracy" in summary:
        lines.append("accuracy   " + "  ".join(
            f"{name} {rate:.2f}"
            for name, rate in summary["accuracy"].items()
        ))
    for record in document["devices"][:3]:
        if record["candidates"]:
            top = record["candidates"][0]
            lines.append(f"  {record['device']}: fault {top['fault']} "
                         f"at node {top['site']} "
                         f"(score {top['score']:.3f}, "
                         f"{len(record['candidates'])} candidate(s))")
        else:
            lines.append(f"  {record['device']}: no candidates")
    if len(document["devices"]) > 3:
        lines.append(f"  ... {len(document['devices']) - 3} more "
                     f"device(s) (use --json for all)")
    return document, "\n".join(lines)


def _write_tests(flow: Flow, destination: str) -> None:
    """Persist the generated test set via the pattern I/O module."""
    from repro.sim.pattern_io import write_pattern_pairs, write_patterns
    from repro.sim.patterns import PatternPairSet

    tests = flow.tests().tests
    if isinstance(tests, PatternPairSet):
        write_pattern_pairs(tests, Path(destination))
    else:
        write_patterns(tests, Path(destination))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the flow service until SIGINT/SIGTERM, then drain and exit."""
    import signal
    import threading

    from repro.flow.server import FlowServer

    cache = None if args.no_cache else (args.cache_dir
                                        or default_cache_root())
    server = FlowServer(
        (args.host, args.port),
        cache=cache,
        max_body=args.max_body,
        allow_bench=args.allow_bench,
        quiet=not args.verbose,
        request_timeout=args.request_timeout,
        max_concurrent_runs=args.max_concurrent,
    )
    host, port = server.server_address[:2]
    print(f"repro flow server listening on http://{host}:{port} "
          f"(cache: {server.cache.root if server.cache else 'disabled'})",
          flush=True)

    def _shutdown(signum, frame) -> None:
        # Runs in the main thread mid-serve_forever; the drain must not
        # block the accept loop's own shutdown, so hand it to a thread.
        print("repro flow server draining "
              f"(signal {signum})...", flush=True)
        threading.Thread(
            target=server.shutdown_gracefully,
            kwargs={"timeout": args.drain_timeout},
            daemon=True,
        ).start()

    signal.signal(signal.SIGINT, _shutdown)
    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever()
    finally:
        print("repro flow server stopped", flush=True)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ArtifactCache(args.cache_dir or None)
    if args.action == "prune":
        removed = cache.prune(stage=args.stage, max_bytes=args.max_bytes)
        document: Dict[str, Any] = {
            "schema": "repro.flow.cache/v1",
            "action": "prune",
            "root": str(cache.root),
            "removed": removed,
        }
        if args.max_bytes is not None:
            document["max_bytes"] = args.max_bytes
        text = f"pruned {removed} artifact(s) under {cache.root}"
    else:
        stats = cache.stats()
        document = {"schema": "repro.flow.cache/v1", "action": "stats",
                    **stats}
        lines = [f"cache root {stats['root']}: {stats['total_files']} "
                 f"artifact(s), {stats['total_bytes']} bytes"]
        for stage, entry in sorted(stats["stages"].items()):
            lines.append(f"  {stage:10s} {entry['files']:6d} file(s) "
                         f"{entry['bytes']:10d} bytes")
        text = "\n".join(lines)
    _emit(json.dumps(document, indent=1) if args.json else text, args)
    return 0


def _bounded(parse, ok, what: str):
    """An argparse ``type``: ``parse`` the text and require ``ok(value)``,
    so a bad value is a usage error naming its flag (exit 2)."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return convert


_positive_int = _bounded(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _bounded(int, lambda v: v >= 0,
                             "a non-negative integer")
_positive_seconds = _bounded(float, lambda v: math.isfinite(v) and v > 0,
                             "a positive finite number of seconds")
_non_negative_seconds = _bounded(float,
                                 lambda v: math.isfinite(v) and v >= 0,
                                 "a non-negative finite number of seconds")


def make_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The ADI flow pipeline: declarative configs, "
                    "content-addressed caching, reproducible runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the whole pipeline for one config")
    _add_config_arguments(run)

    order = sub.add_parser("order",
                           help="compute a fault order's permutation")
    _add_config_arguments(order)

    testgen = sub.add_parser("testgen",
                             help="run ordered test generation")
    _add_config_arguments(testgen)
    testgen.add_argument("--write-tests", metavar="FILE",
                         help="write the generated test set as a pattern "
                              "file (bitstring / pair-bitstring format)")

    report = sub.add_parser("report",
                            help="coverage-curve report of a test set")
    _add_config_arguments(report)

    diagnose = sub.add_parser(
        "diagnose",
        help="batched fault diagnosis of a fail log against a config's "
             "dictionary")
    _add_config_arguments(diagnose)
    diagnose.add_argument("--fail-log", metavar="FILE",
                          help="JSONL fail log to diagnose "
                               "(repro.fail_log/v1)")
    diagnose.add_argument("--devices", type=int, default=100, metavar="N",
                          help="without --fail-log: synthesize N failing "
                               "devices (default 100)")
    diagnose.add_argument("--log-seed", type=int, default=0, metavar="N",
                          help="seed of the synthetic fail log (default 0)")
    diagnose.add_argument("--drop-probability", type=float, default=0.0,
                          metavar="F",
                          help="per-test escape probability of synthetic "
                               "devices (default 0)")
    diagnose.add_argument("--write-fail-log", metavar="FILE",
                          help="persist the (possibly synthetic) fail log "
                               "as JSONL")
    diagnose.add_argument("--top", type=int, default=10, metavar="K",
                          help="candidates reported per device "
                               "(default 10)")
    diagnose.add_argument("--chain", action="store_true",
                          help="re-rank tied candidates by backward-cone "
                               "(causal-chain) evidence from failing "
                               "outputs")

    serve = sub.add_parser(
        "serve", help="run the flow HTTP service (POST /run, GET /metrics)")
    serve.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321, metavar="N",
                       help="bind port (default 8321; 0 picks a free one)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help=f"artifact cache root (default "
                            f"{default_cache_root()})")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without a disk artifact cache")
    serve.add_argument("--max-body", type=_non_negative_int, metavar="BYTES",
                       default=1 << 20,
                       help="reject request bodies above BYTES with 413 "
                            "(default 1 MiB)")
    serve.add_argument("--allow-bench", action="store_true",
                       help="accept configs with circuit.kind 'bench' "
                            "(reads local netlist paths)")
    serve.add_argument("--request-timeout", type=_positive_seconds,
                       default=None, metavar="SECONDS",
                       help="deadline for any /run request; expiry answers "
                            "504 with partial progress while the "
                            "computation finishes for a retry "
                            "(default: unbounded)")
    serve.add_argument("--max-concurrent", type=_positive_int, default=None,
                       metavar="N",
                       help="admit at most N concurrent /run+/diagnose "
                            "requests; excess sheds 503 with Retry-After "
                            "(default: unlimited)")
    serve.add_argument("--drain-timeout", type=_non_negative_seconds,
                       default=30.0, metavar="SECONDS",
                       help="graceful-shutdown drain limit (default 30)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per handled request")

    cache = sub.add_parser("cache", help="inspect or prune the artifact cache")
    cache.add_argument("action", nargs="?", default="stats",
                       choices=("stats", "prune"),
                       help="what to do (default: stats)")
    cache.add_argument("--stage", metavar="NAME",
                       help="restrict prune to one stage directory")
    cache.add_argument("--max-bytes", type=_non_negative_int, metavar="N",
                       help="prune to an LRU size bound instead of "
                            "deleting everything")
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="artifact cache root")
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    cache.add_argument("--out", metavar="FILE",
                       help="write the output document to FILE as well")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI driver; returns a process exit code (0 ok, 2 config error)."""
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "serve":
            return _cmd_serve(args)
        renderers = {
            "run": _render_run,
            "order": _render_order,
            "testgen": _render_testgen,
            "report": _render_report,
            "diagnose": lambda flow, config:
                _render_diagnose(flow, config, args),
        }
        return _run_style_command(args, renderers[args.command])
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`).
        return 0


if __name__ == "__main__":
    sys.exit(main())
