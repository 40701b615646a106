"""Unified fault-simulation backend layer.

Every pipeline stage that needs detection sets — ADI computation,
n-detection analysis, fault dropping, ordered test generation, fault
dictionaries — goes through one engine contract instead of calling a
specific simulator:

* :class:`FaultSimBackend` — the base class every engine derives from.
  It binds a circuit, checks and stages pattern blocks (``load`` for
  single vectors, ``load_pairs`` for launch/capture pairs), and answers
  four queries: ``detection_words`` / ``detection_matrix`` for stuck-at
  faults and ``transition_detection_words`` /
  ``transition_detection_matrix`` for transition faults.  Bit ``p`` of a
  fault's row is set iff pattern (pair) ``p`` detects it, identically
  across engines (property-tested).  An engine supplies only its block
  staging and *one* stuck-at query; the base class converts between
  big-int words and packed rows and derives the transition queries by
  the two-pattern reduction (see :mod:`repro.fsim.transition`).
* a **registry** — backends register under a short name; consumers take a
  ``backend=`` argument (name or instance) and resolve it here, so one
  argument — or the ``REPRO_FSIM_BACKEND`` environment variable — switches
  the whole pipeline.  A name is the whole configuration of an engine:
  an engine with other settings is a factory registered under its own
  name (or over an existing one with ``replace=True``).

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
    worker process running the numpy engine, and the packed per-shard
    detection-matrix rows are reassembled bit-identically.  Opt-in only:
    ``auto`` never picks it, and ``$REPRO_FSIM_SHARDS`` sets its worker
    count.
``auto``
    :class:`AutoFaultSim` — picks ``bigint`` or ``numpy`` per query using
    circuit size, fault count and block width thresholds.  The default.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.circuit.flatten import CompiledCircuit
from repro.errors import SimulationError
from repro.faults.model import Fault
from repro.faults.transition import TransitionFault, check_transition_fault
from repro.fsim.transition import initialization_word
from repro.sim.bitsim import simulate
from repro.sim.patterns import PatternPairSet, PatternSet
from repro.utils.bitvec import full_mask
from repro.utils.detmatrix import DetectionMatrix

#: Environment variable naming the default backend for the whole process.
BACKEND_ENV_VAR = "REPRO_FSIM_BACKEND"

#: Backend used when neither ``backend=`` nor the env var says otherwise.
DEFAULT_BACKEND = "auto"


class FaultSimBackend:
    """The engine contract every fault-simulation backend implements.

    Lifecycle: construct with a :class:`CompiledCircuit`, :meth:`load` a
    pattern block (or :meth:`load_pairs` a two-pattern block), then
    query.  A block may be replaced at any time; queries always refer to
    the most recently loaded one.

    A subclass supplies its block staging (:meth:`_stage`, which sees
    every block after its input count is checked — for a pair block, the
    capture half) and one stuck-at query: :meth:`detection_words` or
    :meth:`detection_matrix`.  Everything else is shared here.
    """

    #: Registry key; also labels the query's ``fsim.detection_matrix`` span.
    name: str

    def __init__(self, circ: CompiledCircuit):
        self.circ = circ
        self._block: Optional[PatternSet] = None
        self._launch_good: Optional[List[int]] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The two stuck-at queries default to each other.
        if (cls.detection_words is FaultSimBackend.detection_words
                and cls.detection_matrix is FaultSimBackend.detection_matrix):
            raise TypeError(
                f"{cls.__name__} must define detection_words or "
                "detection_matrix"
            )

    # -- staging --------------------------------------------------------------

    def load(self, patterns: PatternSet) -> None:
        """Stage a single-vector block for stuck-at queries."""
        self._check_inputs(patterns)
        self._launch_good = None
        self._stage(patterns)
        self._block = patterns

    def load_pairs(self, pairs: PatternPairSet) -> None:
        """Stage a two-pattern block for transition queries.

        The launch half is simulated fault-free here, once; the capture
        half is staged like a single-vector block, so stuck-at queries
        refer to it until the next load.
        """
        self._check_inputs(pairs)
        launch_good = simulate(self.circ, pairs.launch)
        self._stage(pairs.capture)
        self._block = pairs.capture
        self._launch_good = launch_good

    def _stage(self, patterns: PatternSet) -> None:
        """Engine hook: prepare a checked single-vector block."""

    def _check_inputs(self, block: Union[PatternSet, PatternPairSet]) -> None:
        if block.num_inputs != self.circ.num_inputs:
            raise SimulationError(
                f"{self.circ.name}: {type(block).__name__} has "
                f"{block.num_inputs} inputs, circuit has "
                f"{self.circ.num_inputs}"
            )

    def _require_block(self) -> PatternSet:
        """The staged single-vector block (capture half for pairs)."""
        if self._block is None:
            raise SimulationError("no pattern block loaded; call load() first")
        return self._block

    @property
    def num_patterns(self) -> int:
        """Width of the staged block (0 before the first load)."""
        return self._block.num_patterns if self._block is not None else 0

    # -- stuck-at queries (an engine defines one of the two) ------------------

    def detection_words(self, faults: Sequence[Fault]) -> List[int]:
        """Bit ``p`` of word ``i`` set iff pattern ``p`` detects ``faults[i]``."""
        return self.detection_matrix(faults).to_bigints()

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """:meth:`detection_words` packed: one ``uint64`` row per fault."""
        return DetectionMatrix.from_bigints(
            self.detection_words(faults), self.num_patterns
        )

    # -- transition queries: the two-pattern reduction ------------------------

    def transition_detection_words(self, faults: Sequence[TransitionFault]
                                   ) -> List[int]:
        """Bit ``p`` of word ``i`` set iff pair ``p`` detects ``faults[i]``."""
        init = self._initialization_words(faults)
        stuck = self.detection_words([fault.as_stuck_at() for fault in faults])
        return [a & b for a, b in zip(init, stuck)]

    def transition_detection_matrix(self, faults: Sequence[TransitionFault]
                                    ) -> DetectionMatrix:
        """:meth:`transition_detection_words` packed, one row per fault."""
        init = DetectionMatrix.from_bigints(
            self._initialization_words(faults), self.num_patterns
        )
        return self.detection_matrix(
            [fault.as_stuck_at() for fault in faults]
        ) & init

    def _initialization_words(self, faults: Sequence[TransitionFault]
                              ) -> List[int]:
        launch_good = self._launch_good
        if launch_good is None:
            raise SimulationError(
                "no pattern-pair block loaded; call load_pairs() first"
            )
        mask = full_mask(self.num_patterns)
        words = []
        for fault in faults:
            check_transition_fault(self.circ, fault)
            words.append(initialization_word(self.circ, launch_good, fault,
                                             mask))
        return words


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


class AutoFaultSim(FaultSimBackend):
    """Threshold-based dispatcher over the bigint and numpy engines.

    The numpy engine wins when there is enough work to amortize array
    set-up — batch queries on big circuits over wide blocks; the bigint
    engine wins for small problems thanks to its event-driven early
    exit.  Engines are created lazily and load the staged block on
    first use.  Both stuck-at queries dispatch, so each reaches the
    chosen engine's own query.
    """

    name = "auto"

    #: Batch queries below any of these thresholds go to the bigint engine.
    MIN_FAULTS = 24
    MIN_GATES = 48
    MIN_PATTERNS = 16

    def __init__(self, circ: CompiledCircuit):
        super().__init__(circ)
        self._engines: Dict[str, FaultSimBackend] = {}
        self._loaded: Dict[str, bool] = {}

    def _stage(self, patterns: PatternSet) -> None:
        self._loaded = {}

    def _engine(self, num_faults: int) -> FaultSimBackend:
        block = self._require_block()
        name = self._pick(num_faults)
        engine = self._engines.get(name)
        if engine is None:
            engine = create_backend(self.circ, name)
            self._engines[name] = engine
        if not self._loaded.get(name):
            engine.load(block)
            self._loaded[name] = True
        return engine

    def _pick(self, num_faults: int) -> str:
        if (num_faults >= self.MIN_FAULTS
                and self.circ.num_gates >= self.MIN_GATES
                and self.num_patterns >= self.MIN_PATTERNS):
            return "numpy"
        return "bigint"

    def detection_words(self, faults: Sequence[Fault]) -> List[int]:
        """Big-int query on the engine :meth:`_pick` chooses."""
        return self._engine(len(faults)).detection_words(faults)

    def detection_matrix(self, faults: Sequence[Fault]) -> DetectionMatrix:
        """Packed query on the engine :meth:`_pick` chooses."""
        return self._engine(len(faults)).detection_matrix(faults)


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
