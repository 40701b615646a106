"""The ``Flow`` facade: the whole ADI pipeline as one object.

A :class:`Flow` binds a :class:`repro.flow.config.FlowConfig` to the
staged pipeline the paper defines::

    circuit → faults → U selection → ADI → order → test generation → curve

Each stage is exposed as a method (:meth:`Flow.circuit`,
:meth:`Flow.faults`, :meth:`Flow.selection`, :meth:`Flow.adi`,
:meth:`Flow.permutation`, :meth:`Flow.tests`, :meth:`Flow.report`) and
computed at most once per Flow — and, when an
:class:`~repro.flow.cache.ArtifactCache` is attached, at most once per
*content address*: every stage result is keyed by the config subtree it
consumes plus its upstream artifact keys, so re-running with one knob
changed recomputes only the stages below the change, and a warm re-run
of an identical config loads every stage from disk.

Order-dependent stages (permutation, test generation, curve) take an
optional order name so one Flow serves a whole order comparison — the
upstream stages (faults, ``U``, ADI) are shared, exactly like the
memoizing experiment runner the facade replaces.

The facade dispatches through the fault-model registry
(:mod:`repro.faults.registry`): a config naming a newly registered model
runs end to end with no change here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.adi import ORDERS, AdiResult, USelection, compute_adi, select_u
from repro.adi.metrics import CurveReport, curve_report
from repro.circuit.flatten import CompiledCircuit
from repro.errors import ExperimentError, ReproError
from repro.faults.registry import FaultModel, fault_model
from repro.flow.cache import ArtifactCache, stage_key
from repro.flow.config import CircuitSpec, FlowConfig
from repro.flow import serialize
from repro.resilience import context as resilience_context
from repro.telemetry import get_registry, span


@dataclass(frozen=True)
class StageInfo:
    """Provenance of one stage result within a flow run."""

    stage: str
    key: str
    source: str  # "computed" | "cache" | "memory"
    seconds: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the CLI's ``stages`` array entries)."""
        return {
            "stage": self.stage,
            "key": self.key,
            "source": self.source,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class FlowResult:
    """Everything one end-to-end flow run produced, plus provenance."""

    config: FlowConfig
    circuit: CompiledCircuit
    faults: list
    selection: USelection
    adi: AdiResult
    order_name: str
    permutation: List[int]
    tests: Any
    report: CurveReport
    stages: List[StageInfo] = field(default_factory=list)
    #: Absorbed-failure summary from the run's resilience context
    #: (``{"degraded": bool, "retries": int, "degradations": int}``);
    #: ``degraded=True`` means some component fell back to a slower but
    #: bit-identical path (e.g. the sharded engine degrading to inline).
    resilience: Dict[str, Any] = field(default_factory=dict)

    def timings(self) -> Dict[str, Any]:
        """Per-stage durations and cache attribution of this run.

        The ``timings`` key of :meth:`summary` (and of every flow-server
        response document): one entry per stage carrying the same
        duration the telemetry span measured, plus aggregate cache
        hit/miss counts (``hits`` — stages served from the artifact
        cache, ``misses`` — stages actually computed; in-memory repeats
        are neither).
        """
        stages = {
            info.stage: {"seconds": round(info.seconds, 6),
                         "source": info.source}
            for info in self.stages
        }
        return {
            "stages": stages,
            "total_seconds": round(
                sum(info.seconds for info in self.stages), 6),
            "cache": {
                "hits": sum(1 for info in self.stages
                            if info.source == "cache"),
                "misses": sum(1 for info in self.stages
                              if info.source == "computed"),
            },
        }

    def summary(self) -> Dict[str, Any]:
        """The stable JSON document ``repro run --json`` emits."""
        lo, hi = self.adi.adi_min_max()
        return {
            "schema": "repro.flow/v1",
            "config": self.config.to_dict(),
            "circuit": {
                "name": self.circuit.name,
                "inputs": self.circuit.num_inputs,
                "outputs": self.circuit.num_outputs,
                "gates": self.circuit.num_gates,
            },
            "faults": {
                "model": self.config.fault_model.name,
                "count": len(self.faults),
            },
            "u": {
                "num_vectors": self.selection.num_vectors,
                "coverage": self.selection.coverage,
                "candidates_drawn": self.selection.candidates_drawn,
            },
            "adi": {"min": lo, "max": hi, "ratio": self.adi.adi_ratio()},
            "order": {"name": self.order_name},
            "tests": {
                "count": self.tests.num_tests,
                "coverage": self.tests.fault_coverage(),
                "fault_efficiency": self.tests.fault_efficiency(),
                "detected": self.tests.num_detected,
                "undetectable": self.tests.num_undetectable,
                "aborted": self.tests.num_aborted,
                "podem_calls": self.tests.podem_calls,
                "backtracks": self.tests.backtracks,
            },
            "curve": {
                "ave": self.report.ave,
                "num_detected": self.report.num_detected,
                "total_faults": self.report.total_faults,
            },
            "stages": [info.to_dict() for info in self.stages],
            "timings": self.timings(),
            "resilience": self.resilience or resilience_context.baseline_summary(),
        }


def build_circuit_from_spec(spec: CircuitSpec) -> CompiledCircuit:
    """Materialize a :class:`~repro.flow.config.CircuitSpec`.

    ``suite`` circuits go through the benchmark suite's own on-disk
    netlist cache (imported lazily — the suite is experiment *data*, not
    a layer above); ``bench`` parses a netlist file; ``generator``
    synthesizes deterministically from the spec's parameters.
    """
    spec.validate()
    if spec.kind == "suite":
        from repro.experiments.suite import build_circuit

        return build_circuit(spec.name)
    if spec.kind == "bench":
        from pathlib import Path

        from repro.circuit.bench import parse_bench
        from repro.circuit.flatten import compile_circuit

        return compile_circuit(parse_bench(Path(spec.path), name=spec.name))
    from repro.circuit.generator import generate_circuit

    return generate_circuit(spec.generator_spec())


def _circuit_fingerprint(spec: CircuitSpec) -> Dict[str, Any]:
    """The JSON-ready content identity of a circuit spec.

    For ``bench`` circuits the *file content* is hashed in, so editing
    the netlist invalidates every downstream artifact even though the
    path is unchanged.
    """
    import dataclasses

    fingerprint = dataclasses.asdict(spec)
    if spec.kind == "bench" and spec.path:
        import hashlib
        from pathlib import Path

        fingerprint["content_sha256"] = hashlib.sha256(
            Path(spec.path).read_bytes()
        ).hexdigest()
    if spec.kind == "suite":
        from repro.experiments import suite

        fingerprint["suite_algo_version"] = suite._ALGO_VERSION
    return fingerprint


class Flow:
    """One configured pipeline run: staged, memoized, content-addressed.

    ``cache`` is an :class:`~repro.flow.cache.ArtifactCache`, a cache
    root path, or ``None`` for in-memory memoization only (stage results
    then live exactly as long as the Flow).
    """

    def __init__(self, config: FlowConfig,
                 cache: Union[ArtifactCache, str, None] = None,
                 observer=None):
        config.validate()
        self.config = config
        if cache is None or isinstance(cache, ArtifactCache):
            self.cache = cache
        else:
            self.cache = ArtifactCache(cache)
        self._model: FaultModel = fault_model(config.fault_model.name)
        self._memo: Dict[str, Any] = {}
        self._keys: Dict[str, str] = {}
        self.stage_log: Dict[str, StageInfo] = {}
        #: Called with each StageInfo as the stage finishes — the hook
        #: the flow server's progress stream feeds from.  Observer
        #: failures (e.g. a disconnected stream consumer) never abort
        #: the pipeline.
        self.observer = observer

    # -- internals -----------------------------------------------------------

    def _record(self, name: str, key: str, source: str,
                seconds: float) -> None:
        info = StageInfo(stage=name, key=key, source=source, seconds=seconds)
        self.stage_log[name] = info
        if self.observer is not None:
            try:
                self.observer(info)
            except Exception:
                pass

    def _stage(self, name: str, directory: str, key: str, compute,
               encode=None, decode=None):
        """Run one stage through memo → disk cache → compute.

        ``encode``/``decode`` translate between the stage's in-memory
        artifact and its JSON payload; stages without them (the circuit)
        are memo-only.
        """
        if name in self._memo:
            return self._memo[name]
        started = time.perf_counter()
        value = None
        source = "computed"
        with span(f"flow.{directory}", stage=name, key=key[:12]) as stage_span:
            if self.cache is not None and decode is not None:
                payload = self.cache.get(directory, key)
                if payload is not None:
                    try:
                        value = decode(payload)
                        source = "cache"
                    except (ReproError, KeyError, TypeError, ValueError):
                        # Artifact deserialized but failed validation (e.g. a
                        # stale or hand-edited file): delete it and recompute
                        # (put is put-if-absent, so the stale file must go
                        # before the recomputed artifact can land).
                        self.cache.delete(directory, key)
                        value = None
            if value is None:
                value = compute()
                if self.cache is not None and encode is not None:
                    self.cache.put(directory, key, encode(value))
        self._memo[name] = value
        # The span's own clock is the stage's recorded duration, so the
        # trace tree, the registry histogram and StageInfo agree exactly;
        # perf_counter is the fallback with telemetry off.
        seconds = (stage_span.seconds if stage_span.seconds is not None
                   else time.perf_counter() - started)
        get_registry().histogram(
            "repro_flow_stage_seconds",
            "Flow stage wall time by stage and result source.",
        ).labels(stage=directory, source=source).observe(seconds)
        self._record(name, key, source, seconds)
        return value

    def _cached_key(self, name: str, build) -> str:
        """Memoize stage keys: the upstream chain (which for ``bench``
        circuits re-reads and re-hashes the netlist) is walked once."""
        if name not in self._keys:
            self._keys[name] = build()
        return self._keys[name]

    def _order_name(self, order: Optional[str]) -> str:
        name = order if order is not None else self.config.order.name
        if name not in ORDERS:
            raise ExperimentError(
                f"unknown order {name!r}; available: {sorted(ORDERS)}"
            )
        return name

    # -- stage keys ----------------------------------------------------------

    def circuit_key(self) -> str:
        """Content address of the circuit stage."""
        return self._cached_key("circuit", lambda: stage_key(
            "circuit", _circuit_fingerprint(self.config.circuit)
        ))

    def faults_key(self) -> str:
        """Content address of the target fault list."""
        import dataclasses

        return self._cached_key("faults", lambda: stage_key(
            "faults", dataclasses.asdict(self.config.fault_model),
            [self.circuit_key()],
        ))

    def u_key(self) -> str:
        """Content address of the ``U`` selection."""
        import dataclasses

        def build() -> str:
            part = dataclasses.asdict(self.config.u)
            part["seed"] = self.config.seed
            return stage_key(
                "u", part, [self.circuit_key(), self.faults_key()]
            )

        return self._cached_key("u", build)

    def adi_key(self) -> str:
        """Content address of the ADI computation."""
        import dataclasses

        return self._cached_key("adi", lambda: stage_key(
            "adi", dataclasses.asdict(self.config.adi),
            [self.u_key(), self.faults_key()],
        ))

    def order_key(self, order: Optional[str] = None) -> str:
        """Content address of one order's permutation."""
        name = self._order_name(order)
        return self._cached_key(f"order:{name}", lambda: stage_key(
            "order", {"name": name}, [self.adi_key()]
        ))

    def testgen_key(self, order: Optional[str] = None) -> str:
        """Content address of one order's generated test set."""
        import dataclasses

        name = self._order_name(order)

        def build() -> str:
            part = dataclasses.asdict(self.config.testgen)
            part["seed"] = self.config.seed
            return stage_key("testgen", part, [self.order_key(name)])

        return self._cached_key(f"testgen:{name}", build)

    def report_key(self, order: Optional[str] = None) -> str:
        """Content address of one order's coverage-curve report."""
        name = self._order_name(order)
        return self._cached_key(f"curve:{name}", lambda: stage_key(
            "curve", {}, [self.testgen_key(name), self.faults_key()]
        ))

    def run_key(self, order: Optional[str] = None) -> str:
        """Content address of a whole :meth:`run` for one order.

        The final stage's key already chains every semantic knob (and,
        for ``bench`` circuits, the netlist file content) while — like
        all stage keys — excluding the backend spec, which affects speed
        but never results.  This is the key the flow server dedupes
        concurrent identical requests on: two configs that would compute
        identical results share one key.
        """
        return self.report_key(order)

    # -- pipeline stages ------------------------------------------------------

    def circuit(self) -> CompiledCircuit:
        """The compiled circuit (memoized; suite circuits disk-cached
        by the suite itself)."""
        return self._stage(
            "circuit", "circuit", self.circuit_key(),
            lambda: build_circuit_from_spec(self.config.circuit),
        )

    def faults(self) -> list:
        """The target fault list ``F`` (collapsed unless configured off)."""
        return self._stage(
            "faults", "faults", self.faults_key(),
            lambda: self._model.target_faults(
                self.circuit(), collapse=self.config.fault_model.collapse
            ),
            encode=lambda faults: serialize.faults_to_json(
                self._model, faults
            ),
            decode=serialize.faults_from_json,
        )

    def selection(self) -> USelection:
        """The selected vector set ``U`` (paper Section 4)."""
        def compute() -> USelection:
            return select_u(
                self.circuit(), self.faults(),
                seed=self.config.seed,
                max_vectors=self.config.u.max_vectors,
                target_coverage=self.config.u.target_coverage,
                chunk_size=self.config.u.chunk_size,
                prune_useless=self.config.u.prune_useless,
                backend=self.config.backend.fsim,
                model=self._model,
            )

        return self._stage(
            "u", "u", self.u_key(), compute,
            encode=lambda sel: serialize.selection_to_json(
                sel, self.faults()
            ),
            decode=lambda payload: serialize.selection_from_json(
                payload, self.faults()
            ),
        )

    def adi(self) -> AdiResult:
        """The accidental detection indices over ``U`` (paper Section 2).

        A ``U`` computed by this Flow carries the rows of its walk, so the
        ADI needs no fault simulation of its own; a ``U`` decoded from
        the cache carries none, and the ADI queries them.
        """
        def compute() -> AdiResult:
            selection = self.selection()
            return compute_adi(
                self.circuit(), self.faults(), selection.patterns,
                mode=self.config.adi.to_mode(),
                backend=self.config.backend.fsim,
                matrix=selection.matrix,
            )

        return self._stage(
            "adi", "adi", self.adi_key(), compute,
            encode=serialize.adi_to_json,
            decode=lambda payload: serialize.adi_from_json(
                payload, tuple(self.faults())
            ),
        )

    def permutation(self, order: Optional[str] = None) -> List[int]:
        """The permutation a named order induces (default: config's order)."""
        name = self._order_name(order)
        return self._stage(
            f"order:{name}", "order", self.order_key(name),
            lambda: list(ORDERS[name](self.adi())),
            encode=serialize.permutation_to_json,
            decode=serialize.permutation_from_json,
        )

    def ordered_faults(self, order: Optional[str] = None) -> list:
        """The target list in the chosen order — the ATPG's input."""
        faults = self.faults()
        return [faults[i] for i in self.permutation(order)]

    def tests(self, order: Optional[str] = None):
        """Ordered fault-dropping test generation for one order: one
        :class:`repro.atpg.engine.TestGenResult` for every fault model."""
        name = self._order_name(order)

        def compute():
            return self._model.testgen(
                self.circuit(), self.ordered_faults(name),
                self.config.testgen_config(),
            )

        return self._stage(
            f"testgen:{name}", "testgen", self.testgen_key(name), compute,
            encode=lambda result: serialize.testgen_to_json(
                self._model, result
            ),
            decode=lambda payload: serialize.testgen_from_json(
                payload, self.faults()
            ),
        )

    def report(self, order: Optional[str] = None) -> CurveReport:
        """Coverage-curve report of one order's generated test set.

        The test-generation loop already counted, test by test, the
        faults each new test dropped; the curve is their running sum, so
        this stage simulates nothing.
        """
        name = self._order_name(order)

        def compute() -> CurveReport:
            result = self.tests(name)
            return curve_report(self.faults(), result.tests,
                                result.detected_per_test)

        return self._stage(
            f"curve:{name}", "curve", self.report_key(name), compute,
            encode=serialize.curve_to_json,
            decode=serialize.curve_from_json,
        )

    # -- end-to-end ----------------------------------------------------------

    def run(self, order: Optional[str] = None) -> FlowResult:
        """Run every stage for one order and return the full result."""
        name = self._order_name(order)
        with resilience_context.collecting() as events:
            result = FlowResult(
                config=self.config,
                circuit=self.circuit(),
                faults=list(self.faults()),
                selection=self.selection(),
                adi=self.adi(),
                order_name=name,
                permutation=self.permutation(name),
                tests=self.tests(name),
                report=self.report(name),
            )
        result.resilience = events.summary()
        # Only THIS run's stages: the shared upstream plus this order's
        # own entries — a Flow may have served other orders before.
        shared = {"circuit", "faults", "u", "adi"}
        relevant = [
            info for stage, info in self.stage_log.items()
            if stage in shared or stage.endswith(f":{name}")
        ]
        result.stages = sorted(
            relevant,
            key=lambda info: _STAGE_RANK.get(info.stage.split(":")[0], 99),
        )
        return result


#: Presentation order of stages in run summaries.
_STAGE_RANK = {
    "circuit": 0, "faults": 1, "u": 2, "adi": 3,
    "order": 4, "testgen": 5, "curve": 6,
}
