"""The span API: labelled wall-time measurement with nesting.

Infrastructure role: answers "where did the time go" for every hot path
— flow stages, fault-sim batch queries, shard workers, server requests —
with one primitive::

    with span("fsim.detection_matrix", backend="parallel", shards=4):
        ...

A finished span records its duration into the *current* registry (a
histogram series ``repro_span_seconds{span="fsim.detection_matrix"}``
plus a count) and, when a :class:`TraceCollector` is active on this
thread, appends a node to the collector's tree — nesting follows the
runtime call stack via a thread-local span stack, so ``repro run
--trace`` prints the pipeline as an indented tree.

The fast path is genuinely cheap: with telemetry disabled
(``REPRO_TELEMETRY=off``) :func:`span` returns a shared no-op context
manager and records nothing — the instrumentation is safe to leave on
every hot path always (gated < 3% end-to-end by
``benchmarks/bench_telemetry_overhead.py``).

Worker processes use :func:`scoped_registry` to record into a fresh
local registry for the duration of one task and ship its snapshot home;
the parent folds it in with
:meth:`~repro.telemetry.registry.MetricsRegistry.merge`.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.telemetry.registry import MetricsRegistry

#: Environment variable disabling span recording (``off``/``0``/``false``).
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Histogram family every finished span observes into.
SPAN_METRIC = "repro_span_seconds"

_OFF_VALUES = ("off", "0", "false", "no")


def _env_enabled() -> bool:
    return os.environ.get(TELEMETRY_ENV_VAR, "").strip().lower() \
        not in _OFF_VALUES


_enabled = _env_enabled()

#: The process-wide default registry every span and instrument records
#: into unless scoped otherwise.
_default_registry = MetricsRegistry()

_local = threading.local()


def enabled() -> bool:
    """Whether span recording is on for this process."""
    return _enabled


def set_enabled(value: bool) -> None:
    """Flip span recording at runtime (tests, the overhead benchmark)."""
    global _enabled
    _enabled = bool(value)


def get_registry() -> MetricsRegistry:
    """The current registry: the innermost :func:`scoped_registry`, or
    the process-wide default."""
    override = getattr(_local, "registry", None)
    return override if override is not None else _default_registry


@contextlib.contextmanager
def scoped_registry(registry: Optional[MetricsRegistry] = None
                    ) -> Iterator[MetricsRegistry]:
    """Route this thread's recording into ``registry`` (default: fresh).

    The sharded backend's workers wrap each task in this so their spans
    and counters accumulate into a private registry whose snapshot
    travels home with the shard result.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = getattr(_local, "registry", None)
    _local.registry = registry
    try:
        yield registry
    finally:
        _local.registry = previous


class TraceCollector:
    """Collects finished spans of one thread into a tree.

    Activate with :func:`tracing`; read the tree from :attr:`roots`
    (each node: ``name``, ``labels``, ``seconds``, ``children``).
    """

    def __init__(self) -> None:
        self.roots: List[Dict[str, Any]] = []

    def total_seconds(self) -> float:
        """Sum of root-span durations."""
        return sum(node["seconds"] for node in self.roots)

    @staticmethod
    def _walk(nodes: List[Dict[str, Any]], depth: int):
        for node in nodes:
            yield depth, node
            yield from TraceCollector._walk(node["children"], depth + 1)

    def walk(self):
        """Depth-first ``(depth, node)`` pairs over the whole tree."""
        yield from self._walk(self.roots, 0)

    def format_tree(self) -> str:
        """The tree as indented text (what ``repro run --trace`` prints)."""
        lines = []
        for depth, node in self.walk():
            labels = ", ".join(
                f"{k}={v}" for k, v in sorted(node["labels"].items())
            )
            suffix = f" [{labels}]" if labels else ""
            lines.append(
                f"{'  ' * depth}{node['name']:<{max(1, 28 - 2 * depth)}} "
                f"{node['seconds'] * 1000.0:10.2f} ms{suffix}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form of the span tree."""
        return {"spans": self.roots,
                "total_seconds": self.total_seconds()}


@contextlib.contextmanager
def tracing(collector: Optional[TraceCollector] = None
            ) -> Iterator[TraceCollector]:
    """Activate a :class:`TraceCollector` on this thread."""
    collector = collector if collector is not None else TraceCollector()
    previous = getattr(_local, "collector", None)
    previous_stack = getattr(_local, "stack", None)
    _local.collector = collector
    _local.stack = []
    try:
        yield collector
    finally:
        _local.collector = previous
        _local.stack = previous_stack


class _NullSpan:
    """The shared no-op span (telemetry disabled): no timing, no state."""

    __slots__ = ()
    seconds: Optional[float] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """One live measurement; use via ``with span(...) as sp:``.

    After exit, :attr:`seconds` holds the measured duration — callers
    that report the same duration elsewhere (e.g.
    :class:`~repro.flow.flow.StageInfo`) reuse it so the numbers agree
    exactly across surfaces.
    """

    __slots__ = ("name", "labels", "seconds", "_started", "_node")

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = labels
        self.seconds: Optional[float] = None
        self._started = 0.0
        self._node: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "Span":
        collector = getattr(_local, "collector", None)
        if collector is not None:
            self._node = {
                "name": self.name,
                "labels": {k: str(v) for k, v in self.labels.items()},
                "seconds": 0.0,
                "children": [],
            }
            stack = _local.stack
            (stack[-1]["children"] if stack else collector.roots).append(
                self._node)
            stack.append(self._node)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._started
        if self._node is not None:
            self._node["seconds"] = self.seconds
            _local.stack.pop()
        get_registry().histogram(
            SPAN_METRIC, "Wall time of instrumented spans by name.",
        ).labels(span=self.name).observe(self.seconds)


def span(name: str, **labels: Any):
    """A context manager timing one named, labelled piece of work.

    Returns the shared no-op span when telemetry is disabled — the
    always-on fast path.
    """
    if not _enabled:
        return _NULL_SPAN
    return Span(name, labels)
