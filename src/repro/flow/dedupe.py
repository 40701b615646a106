"""Single-flight request coalescing for the flow server.

The scaling premise of :mod:`repro.flow.server` is that repeated traffic
is cheap.  This module provides its primitive: an :class:`InflightTable`
that, per content-address key, admits exactly one *leader* computation,
attaches every concurrent duplicate request as a *follower*, and keeps
the last finished computations for the requests that repeat them:

* the leader runs the flow, publishes per-stage progress events, and
  finally a result (or an exception);
* followers subscribe mid-flight and receive a replay of the events so
  far plus everything still to come, then the shared result;
* a later request reads a kept computation's result and events at once.

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

import collections
import queue
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry import MetricsRegistry

#: Sentinel closing a follower's event stream.
_DONE = object()

#: The role :meth:`InflightTable.lease` gives its caller: the leader of a
#: new computation, a follower of one in flight, or a reader of a kept
#: finished one.  The last two double as the ``source`` the flow server
#: answers such a request with.
LEADER, FOLLOWER, FINISHED = "leader", "inflight", "cache"


class LRU:
    """A bounded map that evicts its least recently used entry.

    ``size <= 0`` keeps nothing.  It takes no lock: its owner holds one
    around every call.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._items: "collections.OrderedDict[str, Any]" = \
            collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: str) -> Any:
        """The value kept for ``key``, now the most recent, or ``None``."""
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> None:
        """Keep ``value`` as the most recent entry, evicting past ``size``."""
        if self.size <= 0:
            return
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.size:
            self._items.popitem(last=False)


class Computation:
    """One keyed computation: a result slot plus an event log that late
    subscribers replay from the start."""

    def __init__(self, key: str):
        self.key = key
        self.done = threading.Event()
        self.result: Any = None
        self.exception: Optional[BaseException] = None
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
    """The per-key table of computations, in flight or finished.

    :meth:`lease` gives each caller its role for ``key`` in one step: it
    reads a kept finished computation (:data:`FINISHED`, which becomes
    the most recently used), follows one in flight (:data:`FOLLOWER`),
    or leads a new one (:data:`LEADER`).  The leader must call
    :meth:`complete` on every exit path.  A result keeps the entry among
    the last ``memo_size`` finished ones (``0`` keeps none); an
    exception retires it, so the next request leads afresh.  Eviction
    only ever drops finished entries.

    Dedupe accounting lives only on a telemetry registry (injected by
    the flow server, which renders it on ``GET /metrics``):
    ``repro_dedupe_coalesced_total`` counts follower attachments,
    ``repro_dedupe_leaders_total`` counts admitted leaders, and
    ``repro_dedupe_inflight_keys`` gauges the keys computing.  A read of
    a finished computation counts in neither counter.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 memo_size: int = 0) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, Computation] = {}
        self._finished = LRU(memo_size)
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

    def lease(self, key: str) -> Tuple[Computation, str]:
        """The computation for ``key`` and the caller's role in it."""
        with self._lock:
            entry = self._finished.get(key)
            if entry is not None:
                return entry, FINISHED
            entry = self._inflight.get(key)
            if entry is not None:
                self._coalesced.inc()
                return entry, FOLLOWER
            entry = Computation(key)
            self._inflight[key] = entry
            self._leaders.inc()
            self._inflight_gauge.set(len(self._inflight))
            return entry, LEADER

    def complete(self, entry: Computation, result: Any = None,
                 exception: Optional[BaseException] = None) -> None:
        """Leader-only: publish the outcome and keep the entry if it
        succeeded, in one step, so a lease never follows a done entry."""
        with self._lock:
            entry.finish(result, exception=exception)
            if self._inflight.get(entry.key) is entry:
                del self._inflight[entry.key]
            if exception is None:
                self._finished.put(entry.key, entry)
            self._inflight_gauge.set(len(self._inflight))

    def memo_state(self) -> Dict[str, int]:
        """Finished computations kept, and how many may be."""
        with self._lock:
            return {"entries": len(self._finished),
                    "size": self._finished.size}
