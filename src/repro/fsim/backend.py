"""Unified fault-simulation backend layer.

Every pipeline stage that needs detection words — ADI computation,
n-detection analysis, fault dropping, ordered test generation, fault
dictionaries — goes through one engine contract instead of calling a
specific simulator:

* :class:`FaultSimBackend` — the protocol: bind a circuit, ``load`` a
  pattern block, answer ``detection_word`` / ``detection_words`` queries
  (bit ``p`` set iff pattern ``p`` detects the fault, identical across
  backends, property-tested).  The two-pattern extension — ``load_pairs``
  a :class:`repro.sim.patterns.PatternPairSet`, answer
  ``transition_detection_words`` for transition faults — follows the same
  bit-identical contract (see :mod:`repro.fsim.transition`).
* a **registry** — backends register under a short name; consumers take a
  ``backend=`` argument (name or instance) and resolve it here, so one
  argument — or the ``REPRO_FSIM_BACKEND`` environment variable — switches
  the whole pipeline.

Registered backends:

``bigint``
    The event-driven PPSFP engine of :mod:`repro.fsim.parallel`: one
    Python big-int word per node, per-fault propagation that stops as
    soon as the faulty/fault-free difference dies.  Cheapest for single
    faults and narrow blocks.
``numpy``
    The fanout-free-region engine of :mod:`repro.fsim.npfsim`: patterns
    packed into ``uint64`` words, every fault's effect traced to its
    region stem with vectorized word ANDs, and only the stems simulated,
    level-by-level in batches.  Fastest for large circuits × many faults
    × wide blocks.
``parallel``
    The sharded multi-core engine of :mod:`repro.fsim.sharded`: the
    fault universe is split into contiguous shards, each simulated by a
    worker process running a base engine, and the packed per-shard
    detection-matrix rows are reassembled bit-identically.  Fastest when
    the single-core numpy engine saturates (10k+-gate circuits); spec
    strings like ``parallel:4:numpy`` pin the shard count / base engine.
``auto``
    :class:`AutoFaultSim` — picks per query using circuit size, fault
    count and block width thresholds.  The default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.telemetry import span
from repro.utils.detmatrix import DetectionMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.faults.transition import TransitionFault

#: Environment variable naming the default backend for the whole process.
BACKEND_ENV_VAR = "REPRO_FSIM_BACKEND"

#: Backend used when neither ``backend=`` nor the env var says otherwise.
DEFAULT_BACKEND = "auto"


@dataclass(frozen=True)
class BackendCapabilities:
    """Static traits consumers may use to pick or tune a backend.

    ``batched`` — ``detection_words`` is amortized over fault batches
    (faster than a loop of ``detection_word`` calls).
    ``incremental`` — single-fault queries are cheap (event-driven with
    early exit), so interleaving queries with dropping costs little.
    """

    batched: bool
    incremental: bool
    description: str = ""


@runtime_checkable
class FaultSimBackend(Protocol):
    """The engine contract every fault-simulation backend implements.

    Lifecycle: construct with a :class:`CompiledCircuit`, :meth:`load` a
    pattern block, then query detection words.  ``load`` may be called
    again with a new block at any time; queries always refer to the most
    recently loaded block.
    """

    name: str
    capabilities: BackendCapabilities
    circ: CompiledCircuit

    def load(self, patterns: PatternSet) -> None:
        """Simulate the fault-free circuit for a pattern block."""

    @property
    def num_patterns(self) -> int:
        """Width of the loaded block (0 before :meth:`load`)."""

    def detection_word(self, fault: Fault) -> int:
        """Bit ``p`` set iff loaded pattern ``p`` detects ``fault``."""

    def detection_words(self, faults: Sequence[Fault]) -> List[int]:
        """Detection word per fault, in input order."""

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """Packed ``uint64`` detection matrix, one row per fault.

        Row ``f`` is ``detection_words([faults[f]])[0]`` packed; the two
        views are bit-identical by contract.  Engines with a packed
        internal representation return it without a big-int round-trip;
        big-int engines pack once (see :class:`PackedQueryAdapter`).
        """

    def load_pairs(self, pairs: PatternPairSet) -> None:
        """Stage a two-pattern block for transition-fault queries."""

    def transition_detection_word(self, fault: "TransitionFault") -> int:
        """Bit ``p`` set iff loaded pair ``p`` detects ``fault``."""

    def transition_detection_words(self, faults: Sequence["TransitionFault"]
                                   ) -> List[int]:
        """Transition detection word per fault, in input order."""

    def transition_detection_matrix(self, faults: Sequence["TransitionFault"]
                                    ) -> DetectionMatrix:
        """Packed transition detection matrix, one row per fault."""


class PackedQueryAdapter:
    """Default packed-matrix queries over the big-int word contract.

    Mixing this into a backend whose native representation is big-int
    words satisfies the ``detection_matrix`` half of the protocol by
    packing the words exactly once; third-party backends without even
    the mixin are handled by :func:`backend_detection_matrix`, which
    falls back to the same single packing step.
    """

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """Pack ``detection_words`` once into a :class:`DetectionMatrix`."""
        return DetectionMatrix.from_bigints(
            self.detection_words(faults), self.num_patterns
        )


def backend_detection_matrix(engine, faults: Sequence[Fault]
                             ) -> DetectionMatrix:
    """``engine.detection_matrix`` with a pack-once fallback.

    Engines predating the packed contract (third-party registrations)
    keep working: their big-int words are packed exactly once here.
    """
    with span("fsim.detection_matrix",
              backend=getattr(engine, "name", type(engine).__name__),
              faults=len(faults)):
        native = getattr(engine, "detection_matrix", None)
        if native is not None:
            return native(faults)
        return DetectionMatrix.from_bigints(
            engine.detection_words(faults), engine.num_patterns
        )


def backend_transition_detection_matrix(engine, faults) -> DetectionMatrix:
    """``engine.transition_detection_matrix`` with a pack-once fallback."""
    with span("fsim.transition_detection_matrix",
              backend=getattr(engine, "name", type(engine).__name__),
              faults=len(faults)):
        native = getattr(engine, "transition_detection_matrix", None)
        if native is not None:
            return native(faults)
        return DetectionMatrix.from_bigints(
            engine.transition_detection_words(faults), engine.num_patterns
        )


BackendFactory = Callable[[CompiledCircuit], FaultSimBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory,
                     replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    Third-party engines plug in here; ``replace=True`` allows overriding
    a built-in (used by tests to stub engines).
    """
    if not replace and name in _REGISTRY:
        raise SimulationError(f"fault-sim backend {name!r} already registered")
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def default_backend_name() -> str:
    """The process-wide default: ``$REPRO_FSIM_BACKEND`` or ``auto``."""
    return os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND


def create_backend(circ: CompiledCircuit,
                   backend: Optional[str] = None) -> FaultSimBackend:
    """Instantiate a backend by name (default: :func:`default_backend_name`).

    Unknown names raise :class:`SimulationError` listing the registered
    backends; when the bad name came from ``$REPRO_FSIM_BACKEND`` rather
    than a ``backend=`` argument, the message says so — a misspelled
    environment variable should fail loudly at resolution time, not as a
    bare ``KeyError`` deep in a pipeline.
    """
    from_env = False
    name = backend
    if name is None:
        env = os.environ.get(BACKEND_ENV_VAR, "").strip()
        from_env = bool(env)
        name = env or DEFAULT_BACKEND
    if name.startswith("parallel:"):
        # Shard knobs travel through plain name channels as a spec
        # string: parallel[:SHARDS[:BASE]] (see repro.fsim.sharded).
        from repro.fsim.sharded import sharded_from_spec

        return sharded_from_spec(circ, name)
    factory = _REGISTRY.get(name)
    if factory is None:
        source = f" (from ${BACKEND_ENV_VAR})" if from_env else ""
        raise SimulationError(
            f"unknown fault-sim backend {name!r}{source}; "
            f"available: {available_backends()}"
        )
    return factory(circ)


def resolve_backend(circ: CompiledCircuit,
                    backend: Union[str, FaultSimBackend, None] = None
                    ) -> FaultSimBackend:
    """Turn a ``backend=`` argument into a bound engine instance.

    Accepts ``None`` (default backend), a registry name, or an already
    constructed backend instance (which must be bound to ``circ``).
    """
    if backend is None or isinstance(backend, str):
        return create_backend(circ, backend)
    if getattr(backend, "circ", None) is not circ:
        raise SimulationError(
            f"backend {getattr(backend, 'name', backend)!r} is bound to a "
            "different circuit"
        )
    return backend


def detection_words(circ: CompiledCircuit, faults: Sequence[Fault],
                    patterns: PatternSet,
                    backend: Union[str, FaultSimBackend, None] = None
                    ) -> List[int]:
    """One-shot convenience: load ``patterns``, query all ``faults``."""
    engine = resolve_backend(circ, backend)
    engine.load(patterns)
    return engine.detection_words(faults)


def detection_matrix(circ: CompiledCircuit, faults: Sequence[Fault],
                     patterns: PatternSet,
                     backend: Union[str, FaultSimBackend, None] = None
                     ) -> DetectionMatrix:
    """One-shot convenience: load ``patterns``, query the packed matrix."""
    engine = resolve_backend(circ, backend)
    engine.load(patterns)
    return backend_detection_matrix(engine, faults)


def transition_detection_words(circ: CompiledCircuit,
                               faults: Sequence["TransitionFault"],
                               pairs: PatternPairSet,
                               backend: Union[str, FaultSimBackend, None] = None
                               ) -> List[int]:
    """One-shot convenience: load ``pairs``, query all transition ``faults``."""
    engine = resolve_backend(circ, backend)
    engine.load_pairs(pairs)
    return engine.transition_detection_words(faults)


def transition_detection_matrix(circ: CompiledCircuit,
                                faults: Sequence["TransitionFault"],
                                pairs: PatternPairSet,
                                backend: Union[str, FaultSimBackend, None] = None
                                ) -> DetectionMatrix:
    """One-shot convenience: load ``pairs``, query the packed matrix."""
    engine = resolve_backend(circ, backend)
    engine.load_pairs(pairs)
    return backend_transition_detection_matrix(engine, faults)


class AutoFaultSim:
    """Threshold-based dispatcher over the bigint and numpy engines.

    The numpy engine wins when there is enough work to amortize array
    set-up — batch queries on big circuits over wide blocks; the bigint
    engine wins for single-fault queries and small problems thanks to its
    event-driven early exit.  Both engines are created lazily and share
    the loaded pattern block.
    """

    name = "auto"
    capabilities = BackendCapabilities(
        batched=True, incremental=True,
        description="dispatches to bigint/numpy by problem size",
    )

    #: Batch queries below any of these thresholds go to the bigint engine.
    MIN_FAULTS = 24
    MIN_GATES = 48
    MIN_PATTERNS = 16

    #: Batch queries at/above ALL of these go to the sharded ``parallel``
    #: backend — when worker processes can help at all (multiple usable
    #: cores, not already inside a worker; see
    #: :func:`repro.fsim.sharded.parallel_available`).  The bars are high
    #: on purpose: process fan-out only pays off where single-core numpy
    #: saturates.
    PARALLEL_MIN_FAULTS = 4096
    PARALLEL_MIN_GATES = 2048
    PARALLEL_MIN_PATTERNS = 256

    def __init__(self, circ: CompiledCircuit):
        self.circ = circ
        self._patterns: Optional[PatternSet] = None
        self._pairs: Optional[PatternPairSet] = None
        self._engines: Dict[str, FaultSimBackend] = {}
        self._loaded: Dict[str, bool] = {}

    def load(self, patterns: PatternSet) -> None:
        """Stage a pattern block; sub-engines simulate it on first use."""
        self._patterns = patterns
        self._pairs = None
        self._loaded = {}

    def load_pairs(self, pairs: PatternPairSet) -> None:
        """Stage a two-pattern block; sub-engines simulate it on first use."""
        self._pairs = pairs
        self._patterns = None
        self._loaded = {}

    @property
    def num_patterns(self) -> int:
        """Width of the staged block (single vectors or pairs)."""
        if self._pairs is not None:
            return self._pairs.num_patterns
        return self._patterns.num_patterns if self._patterns else 0

    def _engine(self, name: str) -> FaultSimBackend:
        if self._patterns is None and self._pairs is None:
            raise SimulationError("no pattern block loaded; call load() first")
        engine = self._engines.get(name)
        if engine is None:
            engine = create_backend(self.circ, name)
            self._engines[name] = engine
        if not self._loaded.get(name):
            if self._pairs is not None:
                engine.load_pairs(self._pairs)
            else:
                engine.load(self._patterns)
            self._loaded[name] = True
        return engine

    def _pick(self, num_faults: int) -> str:
        if (num_faults >= self.PARALLEL_MIN_FAULTS
                and self.circ.num_gates >= self.PARALLEL_MIN_GATES
                and self.num_patterns >= self.PARALLEL_MIN_PATTERNS):
            from repro.fsim.sharded import parallel_available

            if parallel_available():
                return "parallel"
        if (num_faults >= self.MIN_FAULTS
                and self.circ.num_gates >= self.MIN_GATES
                and self.num_patterns >= self.MIN_PATTERNS):
            return "numpy"
        return "bigint"

    def detection_word(self, fault: Fault) -> int:
        """Single-fault query — always the event-driven bigint engine."""
        return self._engine("bigint").detection_word(fault)

    def detection_words(self, faults: Sequence[Fault]) -> List[int]:
        """Batch query, dispatched by :meth:`_pick`."""
        return self._engine(self._pick(len(faults))).detection_words(faults)

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """Packed batch query, dispatched by :meth:`_pick`."""
        engine = self._engine(self._pick(len(faults)))
        return backend_detection_matrix(engine, faults)

    def transition_detection_word(self, fault: "TransitionFault") -> int:
        """Single transition-fault query — the event-driven bigint engine."""
        return self._engine("bigint").transition_detection_word(fault)

    def transition_detection_words(self, faults: Sequence["TransitionFault"]
                                   ) -> List[int]:
        """Batch transition query, dispatched by :meth:`_pick`."""
        engine = self._engine(self._pick(len(faults)))
        return engine.transition_detection_words(faults)

    def transition_detection_matrix(self, faults: Sequence["TransitionFault"]
                                    ) -> DetectionMatrix:
        """Packed batch transition query, dispatched by :meth:`_pick`."""
        engine = self._engine(self._pick(len(faults)))
        return backend_transition_detection_matrix(engine, faults)

    @property
    def good_values(self) -> List[int]:
        """Fault-free node words of the loaded block (bigint engine's)."""
        return self._engine("bigint").good_values


def _bigint_factory(circ: CompiledCircuit) -> FaultSimBackend:
    from repro.fsim.parallel import ParallelFaultSimulator

    return ParallelFaultSimulator(circ)


def _numpy_factory(circ: CompiledCircuit) -> FaultSimBackend:
    from repro.fsim.npfsim import NumpyFaultSim

    return NumpyFaultSim(circ)


def _parallel_factory(circ: CompiledCircuit) -> FaultSimBackend:
    from repro.fsim.sharded import ShardedFaultSim

    return ShardedFaultSim(circ)


register_backend("bigint", _bigint_factory)
register_backend("numpy", _numpy_factory)
register_backend("parallel", _parallel_factory)
register_backend("auto", AutoFaultSim)
