"""Single-flight request coalescing for the flow server.

The scaling premise of :mod:`repro.flow.server` is that repeated traffic
is cheap: warm requests answer from the artifact cache, and *concurrent*
identical requests must not each run the pipeline.  This module provides
the primitive for the second half — an :class:`InflightTable` that, per
content-address key, admits exactly one *leader* computation and
attaches every concurrent duplicate request as a *follower*:

* the leader runs the flow, publishes per-stage progress events, and
  finally a result (or an exception);
* followers subscribe mid-flight and receive a replay of the events so
  far plus everything still to come, then the shared result.

Keys are :meth:`repro.flow.flow.Flow.run_key` content addresses, so two
requests dedupe exactly when they would compute identical results — a
config differing only in backend selection coalesces too.

The table is process-local (threads of one server).  Cross-process
safety is the artifact cache's job (a file lock per stage); this layer only
prevents redundant *computation* inside one server.  Its leader,
follower and in-flight counts live only on the telemetry registry the
server renders on ``GET /metrics``.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry import MetricsRegistry

#: Sentinel closing a follower's event stream.
_DONE = object()


class Computation:
    """One in-flight keyed computation: a result slot plus an event log
    that late subscribers replay from the start."""

    def __init__(self, key: str):
        self.key = key
        self.done = threading.Event()
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.followers = 0
        self._lock = threading.Lock()
        self._events: List[Any] = []
        self._subscribers: List["queue.SimpleQueue[Any]"] = []

    def publish(self, event: Any) -> None:
        """Record one progress event and fan it out to subscribers.

        Events are enqueued under the lock (``SimpleQueue.put`` never
        blocks) so the ``DONE`` sentinel :meth:`finish` appends is
        always the last item a subscriber sees; a publish after finish
        is dropped rather than enqueued behind the closed stream.
        """
        with self._lock:
            if self.done.is_set():
                return
            self._events.append(event)
            for q in self._subscribers:
                q.put(event)

    def subscribe(self) -> "queue.SimpleQueue[Any]":
        """A queue yielding every event (past and future), then the
        ``DONE`` sentinel once :meth:`finish` has run."""
        q: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        with self._lock:
            for event in self._events:
                q.put(event)
            if self.done.is_set():
                q.put(_DONE)
            else:
                self._subscribers.append(q)
        return q

    def next_event(self, q: "queue.SimpleQueue[Any]",
                   timeout: Optional[float] = None) -> Optional[Any]:
        """The next event from a subscription queue, or ``None`` once the
        stream is closed.

        Raises :class:`queue.Empty` on timeout — the primitive behind
        deadline-bounded streaming relays: the server calls this with
        the request budget's remaining seconds and turns the timeout
        into a 504 event instead of blocking with the leader forever.
        Events are never ``None``, so ``None`` unambiguously means done.
        """
        event = q.get(timeout=timeout)
        return None if event is _DONE else event

    def progress(self) -> List[Any]:
        """A snapshot of the events published so far (for partial-result
        reporting on request timeouts)."""
        with self._lock:
            return list(self._events)

    def finish(self, result: Any = None,
               exception: Optional[BaseException] = None) -> None:
        """Publish the outcome and close every subscriber stream."""
        with self._lock:
            self.result = result
            self.exception = exception
            self.done.set()
            subscribers = self._subscribers
            self._subscribers = []
        for q in subscribers:
            q.put(_DONE)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the leader finished; returns ``False`` on timeout."""
        return self.done.wait(timeout)

    def outcome(self) -> Any:
        """The leader's result, re-raising its exception for followers."""
        if self.exception is not None:
            raise self.exception
        return self.result


class InflightTable:
    """The per-key single-flight registry.

    :meth:`lease` hands the caller a :class:`Computation` plus a
    leadership flag; exactly one concurrent caller per key leads.  The
    leader must call :meth:`complete` in a ``finally`` — it closes the
    computation and removes it from the table so later requests (no
    longer concurrent) start fresh, answering from the artifact cache.

    Dedupe accounting lives only on a telemetry registry (injected by
    the flow server, which renders it on ``GET /metrics``):
    ``repro_dedupe_coalesced_total`` counts follower attachments,
    ``repro_dedupe_leaders_total`` counts admitted leaders, and
    ``repro_dedupe_inflight_keys`` gauges the live table size.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, Computation] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._coalesced = self.registry.counter(
            "repro_dedupe_coalesced_total",
            "Requests coalesced onto an in-flight identical computation.",
        ).labels()
        self._leaders = self.registry.counter(
            "repro_dedupe_leaders_total",
            "Computations admitted as single-flight leaders.",
        ).labels()
        self._inflight_gauge = self.registry.gauge(
            "repro_dedupe_inflight_keys",
            "Distinct keys currently computing.",
        ).labels()

    def lease(self, key: str) -> Tuple[Computation, bool]:
        """The computation for ``key`` and whether the caller leads it."""
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.followers += 1
                self._coalesced.inc()
                return entry, False
            entry = Computation(key)
            self._inflight[key] = entry
            self._leaders.inc()
            self._inflight_gauge.set(len(self._inflight))
            return entry, True

    def complete(self, entry: Computation, result: Any = None,
                 exception: Optional[BaseException] = None) -> None:
        """Leader-only: publish the outcome and retire the entry."""
        entry.finish(result, exception=exception)
        with self._lock:
            if self._inflight.get(entry.key) is entry:
                del self._inflight[entry.key]
            self._inflight_gauge.set(len(self._inflight))
