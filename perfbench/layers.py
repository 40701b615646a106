"""Per-layer spans, recorded from outside the program.

The traced run wraps the entry points each layer's callers actually use
-- ``Flow`` calls ``repro.flow.flow.select_u``, not ``repro.adi.select_u``,
so the former is the one wrapped -- and records one span per call: its
name, start and end, the enclosing span on the same thread, and on the
server the id of the request that caused it.  Spans stay in memory until
the run ends.  :meth:`Tracer.uninstall` puts every original object back;
nothing under ``src/`` changes.

:func:`layer_metrics` turns a span list into the per-layer metrics of
``spec.PER_LAYER`` and :func:`table_lines` into the printed table.  A
span's self time is its duration minus the time its children on the same
thread cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)
from urllib.parse import urlparse

#: Methods wrapped on every fault-simulation engine class.
_LOADS = ("load", "load_pairs")
_QUERIES = ("detection_words", "detection_matrix",
            "transition_detection_words", "transition_detection_matrix")

#: Codec pairs of ``repro.flow.serialize``: ``<name>_to_json`` and
#: ``<name>_from_json``.
_CODECS = ("pattern_block", "faults", "selection", "adi", "testgen", "curve")

#: Span names of engine calls.
_FSIM = ("fsim", "fsim.sharded")

#: Modules of the printed rollup; anything else is Flow glue ("flow").
_MODULES = ("flow.cache", "flow.serialize", "flow.server", "flow.dedupe",
            "adi", "fsim", "atpg", "diagnosis", "circuit", "faults")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None
             ) -> Iterator[Dict[str, Any]]:
        """Record the enclosed block as one span."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent["rid"]
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None, "rid": rid}
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The spans finished so far."""
        with self._lock:
            return list(self.spans)

    def wrap(self, owner: Any, attr: str, name: str,
             annotate: Optional[Callable] = None,
             request: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` -- a module or class attribute, or a dict
        entry -- with a wrapper recording one span named ``name`` per call.

        ``annotate(record, args, result)`` adds fields once the call has
        returned, outside the timed interval; ``request(args)`` names the
        request id of a span that starts a thread's work.
        """
        if isinstance(owner, dict):
            own, original = True, owner[attr]
        else:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                # Forked pool workers inherit the wrappers, but their
                # spans could never reach this process.
                return original(*args, **kwargs)
            rid = request(args) if request is not None else None
            with tracer.span(name, rid) as record:
                result = original(*args, **kwargs)
            if annotate is not None:
                annotate(record, args, result)
            return result

        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def new_request(self, handler: Any) -> int:
        """A fresh request id, kept on the handler for the threads its
        request starts."""
        rid = next(self._requests)
        handler._perfbench_rid = rid
        return rid

    def uninstall(self) -> List[str]:
        """Put every original object back; returns any left wrapped."""
        for owner, attr, original, own in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        left = []
        for owner, attr, original, __ in self._patches:
            current = (owner[attr] if isinstance(owner, dict)
                       else getattr(owner, attr))
            if current is not original:
                left.append(f"{getattr(owner, '__name__', 'ORDERS')}.{attr}")
        self._patches.clear()
        return left


def install(tracer: Tracer, server: bool = False) -> None:
    """Wrap each layer's entry points; with ``server``, also the flow
    server's request handling, single-flight table and diagnosis path."""
    import repro.adi as adi
    import repro.atpg.engine as atpg_engine
    import repro.atpg.transition as atpg_transition
    import repro.flow.flow as flow_module
    import repro.flow.serialize as serialize
    from repro.adi.ordering import STATIC_ORDERS
    from repro.atpg.podem import PodemEngine
    from repro.faults.registry import FaultModel
    from repro.flow.cache import ArtifactCache
    from repro.fsim.backend import AutoFaultSim
    from repro.fsim.npfsim import NumpyFaultSim
    from repro.fsim.parallel import ParallelFaultSimulator
    from repro.fsim.sharded import ShardedFaultSim

    wrap = tracer.wrap
    wrap(flow_module, "build_circuit_from_spec", "circuit")
    wrap(FaultModel, "target_faults", "faults", _count)
    wrap(flow_module, "select_u", "adi.sampling", _selection)
    wrap(flow_module, "compute_adi", "adi.index")
    wrap(flow_module, "curve_report", "adi.metrics")
    wrap(flow_module, "stage_key", "flow.cache.key")
    for order in list(adi.ORDERS):
        kind = "static" if order in STATIC_ORDERS else "dynamic"
        wrap(adi.ORDERS, order, f"adi.ordering.{kind}")
    wrap(atpg_engine, "generate_tests", "atpg.engine")
    wrap(atpg_transition, "generate_transition_tests", "atpg.engine")
    wrap(PodemEngine, "run", "atpg.podem", _podem)
    wrap(ArtifactCache, "get", "flow.cache.get", _cache_get)
    wrap(ArtifactCache, "put", "flow.cache.put", _cache_put)
    for codec in _CODECS:
        wrap(serialize, f"{codec}_to_json", "flow.serialize.encode")
        wrap(serialize, f"{codec}_from_json", "flow.serialize.decode")
    for cls in (AutoFaultSim, NumpyFaultSim, ParallelFaultSimulator,
                ShardedFaultSim):
        name = "fsim.sharded" if cls is ShardedFaultSim else "fsim"
        for method in _LOADS + _QUERIES:
            wrap(cls, method, name,
                 _engine_call(cls.__name__, method in _QUERIES))
    if server:
        _install_server(tracer)


def _install_server(tracer: Tracer) -> None:
    import repro.flow.diagnose as diagnose
    from repro.flow.dedupe import Computation, InflightTable
    from repro.flow.server import FlowRequestHandler

    wrap = tracer.wrap
    for method in ("do_GET", "do_POST"):
        wrap(FlowRequestHandler, method, "flow.server.request", _route,
             request=lambda args: tracer.new_request(args[0]))
    # A leader's flow runs on a thread of its own; its spans carry the id
    # of the request that started it.
    wrap(FlowRequestHandler, "_leader_compute", "flow.server.compute",
         request=lambda args: getattr(args[0], "_perfbench_rid", None))
    wrap(Computation, "wait", "flow.dedupe.wait")
    wrap(InflightTable, "lease", "flow.dedupe.lease")
    wrap(InflightTable, "complete", "flow.dedupe.complete")
    wrap(diagnose, "build_diagnosis_context", "diagnosis.context")
    wrap(diagnose, "parse_fail_entries", "diagnosis.parse")
    wrap(diagnose, "diagnosis_document", "diagnosis.render")
    wrap(diagnose, "diagnose_batch", "diagnosis.batch")


# -- annotations (after the call, outside the span) ---------------------------

def _count(record, args, result) -> None:
    record["count"] = len(result)


def _selection(record, args, result) -> None:
    record["useful"] = result.num_vectors
    record["drawn"] = result.candidates_drawn


def _podem(record, args, result) -> None:
    record["status"] = result.status.value
    record["backtracks"] = result.backtracks


def _cache_get(record, args, result) -> None:
    record["hit"] = result is not None


def _cache_put(record, args, result) -> None:
    try:
        record["bytes"] = result.stat().st_size
    except OSError:
        record["bytes"] = 0


def _route(record, args, result) -> None:
    handler = args[0]
    record["route"] = urlparse(handler.path).path
    record["source"] = getattr(handler, "_source", "")


def _engine_call(engine: str, query: bool) -> Callable:
    def annotate(record, args, result) -> None:
        record["engine"] = engine
        record["engine_id"] = id(args[0])
        record["query"] = query
        if query:
            record["faults"] = len(args[1])
            record["patterns"] = args[0].num_patterns
    return annotate


# -- analysis ------------------------------------------------------------------

def _index(spans: Sequence[Dict[str, Any]]):
    by_id = {span["id"]: span for span in spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return by_id, covered


def _under(span: Dict[str, Any], by_id, name: str) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def layer_of(span: Dict[str, Any], by_id) -> str:
    """The layer a span's self time is charged to."""
    name = span["name"]
    if name in _FSIM:
        if _under(span, by_id, "atpg.engine"):
            return "fsim.drop"
        return "fsim.sharded" if name == "fsim.sharded" else "fsim.matrix"
    if name == "atpg.podem":
        return f"atpg.podem.{span.get('status', 'error')}"
    return name


def self_time_table(spans: Sequence[Dict[str, Any]]
                    ) -> List[Tuple[str, int, float, float]]:
    """``(layer, calls, self seconds, share)`` rows, largest first.

    Engine rows name the engine class, e.g. ``fsim.matrix[NumpyFaultSim]``.
    """
    by_id, covered = _index(spans)
    calls: Dict[str, int] = defaultdict(int)
    seconds: Dict[str, float] = defaultdict(float)
    for span in spans:
        layer = layer_of(span, by_id)
        if span["name"] in _FSIM:
            layer += f"[{span.get('engine', '?')}]"
        calls[layer] += 1
        seconds[layer] += (span["end"] - span["start"]) - covered[span["id"]]
    total = sum(seconds.values()) or 1.0
    return sorted(((layer, calls[layer], seconds[layer],
                    seconds[layer] / total) for layer in seconds),
                  key=lambda row: -row[2])


def share(spans: Sequence[Dict[str, Any]], prefixes: Sequence[str],
          total: float) -> float:
    """Self time of the layers starting with ``prefixes``, over ``total``."""
    covered = sum(seconds for layer, __, seconds, __ in self_time_table(spans)
                  if layer.startswith(tuple(prefixes)))
    return covered / total if total else 0.0


def table_lines(spans: Sequence[Dict[str, Any]], limit: int = 24
                ) -> List[str]:
    """The printed self-time table: per module, then per span name."""
    rows = self_time_table(spans)
    modules: Dict[str, float] = defaultdict(float)
    for layer, __, seconds, __ in rows:
        module = next((m for m in _MODULES if layer == m
                       or layer.startswith((m + ".", m + "["))), "flow")
        modules[module] += seconds
    total = sum(modules.values()) or 1.0
    lines = ["self time (span minus children) by module:"]
    for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:44s} {seconds:10.4f} s {seconds / total:7.1%}")
    lines.append("by span:")
    for layer, calls, seconds, part in rows[:limit]:
        lines.append(f"  {layer:44s} {seconds:10.4f} s {part:7.1%} "
                     f"{calls:8d} calls")
    return lines


def layer_metrics(spans: Sequence[Dict[str, Any]],
                  roots: Sequence[str]) -> Dict[str, float]:
    """The span-derived metrics of ``spec.PER_LAYER``.

    ``roots`` name the spans that bound one unit of program work (a flow
    pass, a server-side computation); their self time is Flow glue that
    no named layer covers.
    """
    by_id, covered = _index(spans)
    m: Dict[str, float] = defaultdict(float)
    aborted = useful = drawn = hits = gets = 0
    root_total = 0.0
    first_calls: Dict[Any, Tuple[float, float]] = {}
    for span in spans:
        name = span["name"]
        duration = span["end"] - span["start"]
        own = duration - covered[span["id"]]
        if name in roots:
            root_total += duration
            m["flow.self_s"] += own
        if name == "atpg.podem":
            status = span.get("status", "aborted")
            m[f"atpg.podem.{status}_s"] += own
            m["atpg.podem.calls"] += 1
            m["atpg.podem.backtracks"] += span.get("backtracks", 0)
            aborted += status == "aborted"
        elif name == "atpg.engine":
            m["atpg.engine.self_s"] += own
        elif name in _FSIM:
            parent = by_id.get(span["parent"])
            if (name == "fsim.sharded" and span.get("query")
                    and (parent is None or parent["name"] != "fsim.sharded")):
                engine = span.get("engine_id")
                if engine not in first_calls \
                        or span["start"] < first_calls[engine][0]:
                    first_calls[engine] = (span["start"], duration)
            if parent is None or parent["name"] not in _FSIM:
                prefix = ("fsim.drop" if layer_of(span, by_id) == "fsim.drop"
                          else "fsim.matrix")
                m[f"{prefix}.s"] += duration
                if span.get("query"):
                    m[f"{prefix}.calls"] += 1
                    if prefix == "fsim.matrix":
                        m["fsim.fault_patterns"] += (span["faults"]
                                                     * span["patterns"])
        elif name == "adi.sampling":
            m["adi.sampling.s"] += own
            useful += span.get("useful", 0)
            drawn += span.get("drawn", 0)
        elif name in ("adi.index", "adi.metrics", "circuit", "faults"):
            m[f"{name}.s"] += own
            if name == "faults":
                m["faults.count"] += span.get("count", 0)
        elif name.startswith("adi.ordering."):
            m[f"{name}_s"] += own
        elif name == "flow.cache.get":
            m["flow.cache.get_s"] += own
            gets += 1
            hits += bool(span.get("hit"))
        elif name == "flow.cache.put":
            m["flow.cache.put_s"] += own
            m["flow.cache.bytes_written"] += span.get("bytes", 0)
        elif name.startswith(("flow.serialize.", "diagnosis.")):
            m[f"{name}_s"] += own
    calls = m["atpg.podem.calls"]
    m["atpg.podem.useful_ratio"] = (calls - aborted) / calls if calls else 0.0
    m["adi.sampling.useful_ratio"] = useful / drawn if drawn else 0.0
    m["flow.cache.hit_ratio"] = hits / gets if gets else 0.0
    m["fsim.fault_patterns_per_s"] = (m["fsim.fault_patterns"]
                                      / m["fsim.matrix.s"]
                                      if m["fsim.matrix.s"] else 0.0)
    m["fsim.sharded.first_call_s"] = sum(d for __, d in first_calls.values())
    m["trace.layer_coverage"] = (1.0 - m["flow.self_s"] / root_total
                                 if root_total else 0.0)
    return dict(m)
