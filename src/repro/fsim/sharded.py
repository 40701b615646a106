"""Sharded multi-core fault simulation: the ``parallel`` backend.

Fault-simulation cost is linear in the number of faults, and every fault's
detection word is independent of every other fault's — so the fault
universe shards perfectly: split the fault list into contiguous ranges,
hand each range to a worker process running a *base* engine (``numpy``
unless the constructor's ``base=`` names another), and stack the
per-shard :class:`~repro.utils.detmatrix.DetectionMatrix` rows back
together.  Because shard boundaries preserve fault order and each row
depends only on its own fault, the reassembled matrix is
**bit-identical** to the single-core result by construction (and
exhaustively tested in ``tests/test_fsim_sharded.py``).

The moving parts:

* :func:`plan_shards` — the shard planner: balanced contiguous row
  ranges, deterministic, tolerating empty shards when there are more
  workers than faults;
* :class:`ShardedFaultSim` — the registered ``parallel`` backend: a
  lazy ``multiprocessing`` pool of workers (fork start method where
  available, so the compiled circuit is inherited, not re-pickled per
  task), each holding one base engine and reloading a staged pattern
  block only when its generation changes;
* one query — the engine defines only the stuck-at ``detection_matrix``.
  A transition query reduces to it in the parent
  (:class:`repro.fsim.backend.FaultSimBackend` simulates the launch half
  once and ANDs the initialization words in), so workers only ever load
  single-vector blocks and answer stuck-at queries;
* reassembly — :meth:`repro.utils.detmatrix.DetectionMatrix.concat_rows`
  over the per-shard row blocks, in shard order;
* error/teardown propagation — a worker failure (any ``BaseException``,
  so even a ``KeyboardInterrupt`` inside a worker) crosses the process
  boundary as a structured error tuple, surfaces as **one**
  :class:`~repro.errors.SimulationError` naming the shard, and tears the
  sibling workers down; a ``KeyboardInterrupt`` in the parent likewise
  terminates the pool before propagating, so no orphan processes
  survive either failure mode;
* supervision — each sharded map runs under the engine's
  :class:`~repro.resilience.supervisor.RetryPolicy`: a per-attempt
  deadline (``map_async`` + timeout, so a hung worker cannot stall the
  query forever), bounded retry with exponential backoff and a fresh
  pool after each failed attempt, and — when retries are exhausted —
  graceful degradation to the inline base engine, whose result is
  bit-identical by construction.  Retries and degradations are recorded
  through :func:`repro.resilience.context.record`, so they surface both
  as ``repro_resilience_*`` counters and as ``degraded=True`` in the
  surrounding :meth:`FlowResult.summary`;
* chaos hooks — the ``shard.worker.crash`` / ``shard.worker.hang``
  injection sites.  Decisions are drawn in the *parent* at task-build
  time (the seeded stream and ``max_fires`` caps live in one process,
  so they survive pool restarts and redraw per retry attempt); the
  failure itself executes inside the worker, exercising the real
  cross-process error path;
* telemetry — each worker records faults simulated (by base engine)
  and shard sim time into a :func:`repro.telemetry.scoped_registry` and
  ships the snapshot home with its row block; the parent merges every snapshot under a
  ``shard`` label, so per-shard series appear in the process registry
  (and on ``GET /metrics``) with sums equal to the single-core totals.

Small queries (fewer faults than :attr:`ShardedFaultSim.min_faults`)
never touch the pool: they run inline on a base engine bound in-process,
so the backend is safe to select globally (``REPRO_FSIM_BACKEND=parallel``)
without paying process overhead on tiny problems.

The engine is opt-in: ``auto`` never picks it.  The registered
``parallel`` name builds it with every default: ``$REPRO_FSIM_SHARDS``
workers (else the usable core count), each running ``numpy``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import weakref
from typing import List, Optional, Sequence, Tuple

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.fsim.backend import FaultSimBackend, create_backend
from repro.resilience import chaos as _chaos
from repro.resilience import context as _resilience
from repro.resilience.chaos import ChaosInjected
from repro.resilience.supervisor import RetryPolicy
from repro.sim.patterns import PatternSet
from repro.telemetry import get_registry, scoped_registry, span
from repro.utils.detmatrix import DetectionMatrix

#: Environment variable overriding the shard (worker) count.
SHARDS_ENV_VAR = "REPRO_FSIM_SHARDS"

#: Counter of simulated faults; the ``shard`` label distinguishes the
#: inline small-query path (``"inline"``) from pool workers (``"0"``,
#: ``"1"``, ...), so summing the family across shards equals the total
#: fault count of every query — the invariant the telemetry merge
#: tests assert.
FAULTS_METRIC = "repro_fsim_faults_total"
_FAULTS_HELP = "Faults simulated, by base engine and shard."

#: Queries on fewer faults than this run inline (no worker pool).
DEFAULT_MIN_FAULTS = 1024


def available_cores() -> int:
    """Usable CPU cores (CPU-affinity aware where the OS exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def default_num_shards() -> int:
    """The shard count: ``$REPRO_FSIM_SHARDS`` or the usable core count."""
    env = os.environ.get(SHARDS_ENV_VAR, "").strip()
    if env:
        try:
            shards = int(env)
        except ValueError:
            raise SimulationError(
                f"${SHARDS_ENV_VAR} must be a positive integer, got {env!r}"
            ) from None
        if shards < 1:
            raise SimulationError(
                f"${SHARDS_ENV_VAR} must be >= 1, got {shards}"
            )
        return shards
    return available_cores()


def plan_shards(num_items: int, num_shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` ranges covering ``num_items``.

    Always returns exactly ``num_shards`` ranges in index order; sizes
    differ by at most one (the first ``num_items % num_shards`` shards
    take the extra item), and shards past the item count are empty —
    reassembly tolerates them, so a 7-way plan over 5 faults is valid.
    """
    if num_items < 0:
        raise SimulationError(f"cannot shard {num_items} items")
    if num_shards < 1:
        raise SimulationError(f"shard count must be >= 1, got {num_shards}")
    base, extra = divmod(num_items, num_shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for shard in range(num_shards):
        stop = start + base + (1 if shard < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# -- worker side ---------------------------------------------------------------
#
# Workers are long-lived: the pool initializer binds the circuit and base
# engine name once, the engine itself is built on first use, and a staged
# pattern block is re-simulated only when the task's generation counter
# moves (so N shard queries against one block load it once per worker).

_worker_state: dict = {}


def _worker_init(circ: CompiledCircuit, base: str) -> None:
    """Pool initializer: remember the circuit and base engine name."""
    _worker_state.clear()
    _worker_state["circ"] = circ
    _worker_state["base"] = base
    _worker_state["engine"] = None
    _worker_state["loaded"] = None


def _simulate_shard(task):
    """Run one shard; never raise — errors travel home as tuples.

    ``task`` is ``(shard_index, generation, block, faults, inject)``.  Returns ``("ok", shard_index, words,
    telemetry_snapshot)`` with the shard's uint64 row block and the
    worker-local registry snapshot (the parent merges it back under a
    ``shard`` label), or ``("error", shard_index, summary,
    traceback_text)``.  Catching ``BaseException`` is deliberate: even
    a ``KeyboardInterrupt`` delivered inside a worker must come home as
    one structured error instead of killing the worker mid-protocol.

    ``inject`` is the shard's chaos order, decided by the parent:
    ``None``, ``("crash",)`` (raise :class:`ChaosInjected` — travels
    home as an error tuple like any real worker crash), or ``("hang",
    seconds)`` (sleep past the supervisor's shard deadline).
    """
    shard_index, generation, block, faults, inject = task
    try:
        with scoped_registry() as registry:
            if inject is not None:
                if inject[0] == "hang":
                    time.sleep(inject[1])
                else:
                    raise ChaosInjected(
                        f"chaos: injected worker crash in shard {shard_index}"
                    )
            engine = _worker_state.get("engine")
            if engine is None:
                engine = create_backend(_worker_state["circ"],
                                        _worker_state["base"])
                _worker_state["engine"] = engine
            if _worker_state.get("loaded") != generation:
                engine.load(block)
                _worker_state["loaded"] = generation
            registry.counter(FAULTS_METRIC, _FAULTS_HELP).labels(
                base=_worker_state["base"]).inc(len(faults))
            with span("fsim.shard", base=_worker_state["base"]):
                if faults:
                    matrix = engine.detection_matrix(faults)
                else:  # empty shard: 0-row block of the right width
                    matrix = DetectionMatrix.zeros(0, block.num_patterns)
            return ("ok", shard_index, matrix.words, registry.snapshot())
    except BaseException as exc:  # noqa: BLE001 - crosses process boundary
        return ("error", shard_index, f"{type(exc).__name__}: {exc}",
                traceback.format_exc())


def _terminate_pool(pool) -> None:
    """Hard-stop a pool and reap its workers (GC finalizer / teardown)."""
    pool.terminate()
    pool.join()


class ShardedFaultSim(FaultSimBackend):
    """The ``parallel`` backend: fault-universe sharding over processes.

    :meth:`detection_matrix` shards the fault list with
    :func:`plan_shards`, fans the ranges out to a lazy worker pool (each
    worker running the ``base`` engine), and reassembles the per-shard
    rows in shard order — bit identical to the single-core result.
    Batches below ``min_faults`` run inline on an in-process base engine
    instead.  Transition queries reduce to this stuck-at query in the
    parent (:class:`repro.fsim.backend.FaultSimBackend`), so workers
    only ever see single-vector blocks.

    The pool is created on first sharded query and torn down by
    :meth:`close`, by garbage collection (a ``weakref`` finalizer), or —
    with ``terminate`` semantics — by any error during a sharded query,
    so a failed run never leaks worker processes.
    """

    name = "parallel"

    def __init__(self, circ: CompiledCircuit, base: str = "numpy",
                 num_shards: Optional[int] = None,
                 min_faults: Optional[int] = None,
                 mp_context=None,
                 policy: Optional[RetryPolicy] = None):
        if base == self.name:
            raise SimulationError(
                "the parallel backend cannot use itself as base engine"
            )
        super().__init__(circ)
        self.base = base
        self.num_shards = (default_num_shards() if num_shards is None
                           else num_shards)
        if self.num_shards < 1:
            raise SimulationError(
                f"shard count must be >= 1, got {self.num_shards}"
            )
        self.min_faults = (DEFAULT_MIN_FAULTS if min_faults is None
                           else min_faults)
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = mp_context
        self.policy = RetryPolicy.from_env() if policy is None else policy
        self._pool = None
        self._finalizer = None
        self._inline = None  # in-process base engine for small queries
        self._inline_loaded = 0
        self._generation = 0

    def _stage(self, patterns: PatternSet) -> None:
        # Engines (inline and in the workers) load the block on first use.
        self._generation += 1

    def _inline_engine(self) -> FaultSimBackend:
        block = self._require_block()
        if self._inline is None:
            self._inline = create_backend(self.circ, self.base)
        if self._inline_loaded != self._generation:
            self._inline.load(block)
            self._inline_loaded = self._generation
        return self._inline

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._ctx.Pool(
                processes=self.num_shards,
                initializer=_worker_init,
                initargs=(self.circ, self.base),
            )
            self._finalizer = weakref.finalize(
                self, _terminate_pool, self._pool
            )
        return self._pool

    def close(self, terminate: bool = False) -> None:
        """Shut the worker pool down (idempotent).

        ``terminate=True`` hard-stops workers mid-task — the error path;
        the default waits for a clean exit.  A later sharded query simply
        builds a fresh pool.
        """
        pool, self._pool = self._pool, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if pool is not None:
            if terminate:
                pool.terminate()
            else:
                pool.close()
            pool.join()

    def __enter__(self) -> "ShardedFaultSim":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(terminate=exc_type is not None)

    # -- the sharded query ----------------------------------------------------

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """Packed batch query, sharded across the worker pool."""
        block = self._require_block()
        if self.num_shards == 1 or len(faults) < self.min_faults:
            get_registry().counter(FAULTS_METRIC, _FAULTS_HELP).labels(
                base=self.base, shard="inline",
            ).inc(len(faults))
            return self._inline_engine().detection_matrix(faults)
        shards = str(self.num_shards)
        policy = self.policy
        plan = plan_shards(len(faults), self.num_shards)
        attempt = 0
        last_error: Optional[SimulationError] = None
        while True:
            # Chaos orders are drawn fresh per attempt in the parent:
            # the seeded streams and max_fires caps live here, so a
            # "fail once" plan crashes attempt 1 and spares attempt 2
            # even though the pool was rebuilt in between.
            tasks = [
                (index, self._generation, block,
                 list(faults[start:stop]), self._injection(index))
                for index, (start, stop) in enumerate(plan)
            ]
            if self._pool is None:
                with span("fsim.pool_spinup", shards=shards):
                    pool = self._ensure_pool()
            else:
                pool = self._ensure_pool()
            results = None
            try:
                with span("fsim.shard_map", shards=shards):
                    handle = pool.map_async(_simulate_shard, tasks)
                    results = handle.get(policy.shard_timeout)
            except multiprocessing.TimeoutError:
                # A worker is hung (or the map is simply over budget):
                # hard-stop the pool so the stragglers die now.
                self.close(terminate=True)
                last_error = SimulationError(
                    f"parallel shard map (base {self.base!r}, {shards} "
                    f"shards) exceeded its {policy.shard_timeout:g}s "
                    f"deadline on attempt {attempt + 1}/"
                    f"{policy.max_attempts}"
                )
            except BaseException:
                # Parent-side failure (KeyboardInterrupt included):
                # reap the workers before propagating so nothing is
                # orphaned.  Never retried — the parent is the one
                # failing, not a shard.
                self.close(terminate=True)
                raise
            if results is not None:
                errors = [r for r in results if r[0] == "error"]
                if not errors:
                    registry = get_registry()
                    for __, index, __, snapshot in results:
                        # Worker-local series come home with the row
                        # block; the shard label keeps per-worker
                        # resolution after merging.  Only successful
                        # attempts merge, so retried work is counted
                        # once and shard sums still equal the query's
                        # fault count.
                        registry.merge(
                            snapshot, extra_labels={"shard": str(index)}
                        )
                    with span("fsim.concat", shards=shards):
                        parts = [
                            DetectionMatrix(words, block.num_patterns)
                            for __, __, words, __ in results  # in order
                        ]
                        return DetectionMatrix.concat_rows(
                            parts, block.num_patterns
                        )
                self.close(terminate=True)
                __, index, summary, trace = errors[0]
                start, stop = plan[index]
                last_error = SimulationError(
                    f"parallel shard {index} (faults {start}:{stop}, "
                    f"base {self.base!r}) failed: {summary}\n{trace}"
                )
            attempt += 1
            if attempt >= policy.max_attempts:
                break
            _resilience.record(
                "retry", "fsim.parallel",
                attempt=attempt, max_attempts=policy.max_attempts,
                error=str(last_error).splitlines()[0],
            )
            delay = policy.backoff(attempt - 1)
            if delay > 0:
                time.sleep(delay)
        if policy.degrade:
            _resilience.record(
                "degradation", "fsim.parallel",
                attempts=policy.max_attempts,
                error=str(last_error).splitlines()[0],
            )
            get_registry().counter(FAULTS_METRIC, _FAULTS_HELP).labels(
                base=self.base, shard="degraded",
            ).inc(len(faults))
            with span("fsim.degraded_inline"):
                return self._inline_engine().detection_matrix(faults)
        raise last_error

    def _injection(self, shard_index: int):
        """The parent-side chaos decision for one shard task (or None)."""
        if _chaos.fire("shard.worker.crash", shard=shard_index):
            return ("crash",)
        if _chaos.fire("shard.worker.hang", shard=shard_index):
            seconds = float(
                _chaos.param("shard.worker.hang", "seconds", 30.0)
            )
            return ("hang", seconds)
        return None
