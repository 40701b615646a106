"""Declarative flow configuration: one frozen dataclass tree per run.

The paper's pipeline — fault universe → vector set ``U`` → ADI → order →
ordered test generation → coverage curve — used to be wired by threading
loose kwargs (``backend=``, ``seed=``, ``AdiMode``, ``model=``,
``TestGenConfig``) through half a dozen modules.  :class:`FlowConfig`
replaces that with a single JSON-(de)serializable value: every knob of
every stage lives in one named spec, every spec is frozen (hashable,
safe to share), and the whole tree round-trips through JSON — which is
what makes the content-addressed artifact cache
(:mod:`repro.flow.cache`) and the ``repro`` CLI possible.

Layout of the tree (one spec per pipeline stage)::

    FlowConfig
    ├── circuit:     CircuitSpec      which circuit, and how to obtain it
    ├── fault_model: FaultModelSpec   registry name + collapsing switch
    ├── u:           USpec            the U-selection procedure knobs
    ├── adi:         AdiSpec          how ADI summarizes ndet over D(f)
    ├── order:       OrderSpec        the fault order fed to the ATPG
    ├── testgen:     TestGenSpec      deterministic test-generation knobs
    ├── backend:     BackendSpec      fault-simulation engine selection
    └── seed:        int              the ONE random seed of the run

``seed`` is deliberately a single scalar: every stochastic stage derives
its sub-stream from it via :mod:`repro.utils.rng`, so two runs with equal
configs are bit-identical and a config fully names its outputs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union, get_args, get_type_hints

from repro.errors import ExperimentError

#: Bump when the meaning of any config field changes incompatibly; a
#: document naming another version fails validation.  No stage key
#: hashes it: :data:`repro.flow.cache.CACHE_FORMAT_VERSION` is the
#: version every key carries.
CONFIG_VERSION = 1

#: X-fill policies understood by :mod:`repro.atpg.random_fill`.
_FILL_POLICIES = ("random", "zero", "one")

#: How :class:`repro.adi.index.AdiMode` spellings appear in configs.
_ADI_MODES = ("minimum", "average")

#: Circuit acquisition methods.
_CIRCUIT_KINDS = ("suite", "bench", "generator")


def _check(condition: bool, message: str) -> None:
    """Raise :class:`ExperimentError` with ``message`` unless ``condition``."""
    if not condition:
        raise ExperimentError(f"invalid flow config: {message}")


@dataclass(frozen=True)
class CircuitSpec:
    """Which circuit to run on, and how to obtain it.

    ``kind`` selects the acquisition method:

    * ``"suite"`` — ``name`` is a benchmark-suite entry
      (:mod:`repro.experiments.suite`), built through the suite's own
      on-disk netlist cache;
    * ``"bench"`` — ``path`` is an ISCAS-89 ``.bench`` netlist to parse;
    * ``"generator"`` — a synthetic circuit from
      :mod:`repro.circuit.generator` with ``num_inputs`` /
      ``num_gates`` / ``num_outputs`` / ``gen_seed`` / ``hardness`` /
      ``locality`` (no redundancy removal; faults the generator leaves
      undetectable simply stay in the target list).
    """

    kind: str = "suite"
    name: str = "irs208"
    path: Optional[str] = None
    num_inputs: Optional[int] = None
    num_gates: Optional[int] = None
    num_outputs: Optional[int] = None
    gen_seed: int = 0
    hardness: float = 0.04
    locality: float = 0.72

    def validate(self) -> None:
        """Check internal consistency; raise :class:`ExperimentError`."""
        _check(self.kind in _CIRCUIT_KINDS,
               f"circuit.kind {self.kind!r} not in {_CIRCUIT_KINDS}")
        if self.kind == "bench":
            _check(bool(self.path), "circuit.kind 'bench' needs circuit.path")
        if self.kind == "generator":
            for attr in ("num_inputs", "num_gates", "num_outputs"):
                _check(getattr(self, attr) is not None,
                       f"circuit.kind 'generator' needs circuit.{attr}")
        _check(bool(self.name), "circuit.name must be non-empty")


@dataclass(frozen=True)
class FaultModelSpec:
    """Which registered fault model to target.

    ``name`` resolves through :mod:`repro.faults.registry`; ``collapse``
    selects the structurally collapsed target list (the default, and
    what the paper evaluates) versus the full universe.
    """

    name: str = "stuck_at"
    collapse: bool = True

    def validate(self) -> None:
        """Check the model is registered; raise :class:`ExperimentError`."""
        from repro.faults.registry import available_fault_models

        _check(self.name in available_fault_models(),
               f"fault_model.name {self.name!r} not registered; "
               f"available: {available_fault_models()}")


@dataclass(frozen=True)
class USpec:
    """Knobs of the ``U``-selection procedure (paper Section 4)."""

    max_vectors: int = 10_000
    target_coverage: float = 0.90
    chunk_size: int = 64
    prune_useless: bool = False

    def validate(self) -> None:
        """Range-check the selection knobs; raise :class:`ExperimentError`."""
        _check(self.max_vectors >= 1, "u.max_vectors must be >= 1")
        _check(0.0 < self.target_coverage <= 1.0,
               "u.target_coverage must be in (0, 1]")
        _check(self.chunk_size >= 1, "u.chunk_size must be >= 1")


@dataclass(frozen=True)
class AdiSpec:
    """How ``ADI(f)`` summarizes ``ndet`` over ``D(f)``."""

    mode: str = "minimum"

    def validate(self) -> None:
        """Check the mode spelling; raise :class:`ExperimentError`."""
        _check(self.mode in _ADI_MODES,
               f"adi.mode {self.mode!r} not in {_ADI_MODES}")

    def to_mode(self):
        """The :class:`repro.adi.index.AdiMode` this spec names."""
        from repro.adi.index import AdiMode

        return AdiMode(self.mode)


@dataclass(frozen=True)
class OrderSpec:
    """Which fault order feeds the test generator."""

    name: str = "0dynm"

    def validate(self) -> None:
        """Check the order is registered; raise :class:`ExperimentError`."""
        from repro.adi import ORDERS

        _check(self.name in ORDERS,
               f"order.name {self.name!r} unknown; "
               f"available: {sorted(ORDERS)}")


@dataclass(frozen=True)
class TestGenSpec:
    """Deterministic test-generation knobs (paper Section 4)."""

    # Not a test class despite the Test* name: keep pytest collection away
    # from test modules that import it.
    __test__ = False

    backtrack_limit: int = 200
    fill: str = "random"

    def validate(self) -> None:
        """Range-check the ATPG knobs; raise :class:`ExperimentError`."""
        _check(self.backtrack_limit >= 0,
               "testgen.backtrack_limit must be >= 0")
        _check(self.fill in _FILL_POLICIES,
               f"testgen.fill {self.fill!r} not in {_FILL_POLICIES}")

    def to_config(self, seed: int, backend: Optional[str]):
        """The :class:`repro.atpg.engine.TestGenConfig` this spec names."""
        from repro.atpg.engine import TestGenConfig

        return TestGenConfig(
            backtrack_limit=self.backtrack_limit,
            fill=self.fill,
            seed=seed,
            backend=backend,
        )


@dataclass(frozen=True)
class BackendSpec:
    """Fault-simulation engine selection (see :mod:`repro.fsim.backend`).

    ``fsim`` is a registry name or ``None`` for the process default
    (which honours ``REPRO_FSIM_BACKEND``); the name alone configures
    the engine.  Backends are bit-identical by contract, so this spec is
    excluded from artifact-cache keys — it affects speed, never results.
    """

    fsim: Optional[str] = None

    def validate(self) -> None:
        """Check the backend is registered; raise :class:`ExperimentError`."""
        if self.fsim is not None:
            from repro.fsim.backend import available_backends

            _check(self.fsim in available_backends(),
                   f"backend.fsim {self.fsim!r} not registered; "
                   f"available: {available_backends()}")


@dataclass(frozen=True)
class FlowConfig:
    """The whole pipeline as one frozen, JSON-round-trippable value."""

    circuit: CircuitSpec = field(default_factory=CircuitSpec)
    fault_model: FaultModelSpec = field(default_factory=FaultModelSpec)
    u: USpec = field(default_factory=USpec)
    adi: AdiSpec = field(default_factory=AdiSpec)
    order: OrderSpec = field(default_factory=OrderSpec)
    testgen: TestGenSpec = field(default_factory=TestGenSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    seed: int = 2005
    version: int = CONFIG_VERSION

    def validate(self) -> "FlowConfig":
        """Validate the whole tree; returns ``self`` for chaining."""
        _check(self.version == CONFIG_VERSION,
               f"config version {self.version} != supported {CONFIG_VERSION}")
        for spec in (self.circuit, self.fault_model, self.u, self.adi,
                     self.order, self.testgen, self.backend):
            spec.validate()
        return self

    # -- JSON (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The config as a plain nested dict (JSON-ready)."""
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 1) -> str:
        """The config as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FlowConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ExperimentError` naming them — a
        misspelled knob must fail loudly, not silently fall back to its
        default.
        """
        _check(isinstance(data, dict), "config document must be a JSON object")
        spec_types = {
            "circuit": CircuitSpec,
            "fault_model": FaultModelSpec,
            "u": USpec,
            "adi": AdiSpec,
            "order": OrderSpec,
            "testgen": TestGenSpec,
            "backend": BackendSpec,
        }
        known = set(spec_types) | {"seed", "version"}
        unknown = sorted(set(data) - known)
        _check(not unknown, f"unknown config keys {unknown}; known: "
                            f"{sorted(known)}")
        kwargs: Dict[str, Any] = {}
        for key, spec_type in spec_types.items():
            if key in data:
                kwargs[key] = _spec_from_dict(spec_type, key, data[key])
        for scalar in ("seed", "version"):
            if scalar in data:
                _check_type(scalar, data[scalar], (int,))
                kwargs[scalar] = data[scalar]
        return FlowConfig(**kwargs)

    @staticmethod
    def from_json(source: Union[str, Path]) -> "FlowConfig":
        """Rebuild a config from a JSON document or a path to one.

        A :class:`~pathlib.Path` is always read; a string is treated as
        a file path when a file exists there, and as inline JSON text
        otherwise.
        """
        if isinstance(source, Path):
            text = source.read_text()
        else:
            text = source
            if "\n" not in source and "{" not in source:
                try:
                    if Path(source).is_file():
                        text = Path(source).read_text()
                except OSError:
                    pass  # e.g. a name too long to stat: inline text
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"config is not valid JSON: {exc}") from exc
        return FlowConfig.from_dict(data)

    # -- derived views -------------------------------------------------------

    def replace(self, **changes: Any) -> "FlowConfig":
        """A copy with top-level fields replaced (specs or scalars)."""
        return dataclasses.replace(self, **changes)

    def testgen_config(self):
        """The :class:`repro.atpg.engine.TestGenConfig` of this run."""
        return self.testgen.to_config(self.seed, self.backend.fsim)

    def fingerprint(self) -> str:
        """A cheap stable identity of the *literal* config document.

        Unlike :meth:`repro.flow.flow.Flow.run_key` this hashes the
        config exactly as given (backend knobs included, no file
        contents read), so it is safe to compute before any I/O — the
        flow server uses it to label requests in logs and metrics.
        """
        from repro.flow.cache import stable_hash

        return stable_hash(self.to_dict())

    def requires_local_files(self) -> bool:
        """Whether running this config reads files off the local disk.

        ``bench`` circuit specs name an arbitrary netlist path; a
        service accepting configs from the network refuses them unless
        explicitly allowed (see ``repro serve --allow-bench``).
        """
        return self.circuit.kind == "bench"


def _spec_from_dict(spec_type: type, key: str, data: Any):
    """Build one sub-spec, rejecting unknown fields and mistyped values
    by name."""
    _check(isinstance(data, dict), f"config section {key!r} must be an object")
    accepted = _accepted_types(spec_type)
    unknown = sorted(set(data) - set(accepted))
    _check(not unknown,
           f"unknown keys {unknown} in config section {key!r}; "
           f"known: {sorted(accepted)}")
    for name, value in data.items():
        _check_type(f"{key}.{name}", value, accepted[name])
    return spec_type(**data)


@functools.lru_cache(maxsize=None)
def _accepted_types(spec_type: type) -> Dict[str, tuple]:
    """The types each field's JSON value may have, resolved once per spec
    class from its annotations: ``Optional[X]`` accepts ``X`` and
    ``None``."""
    return {name: get_args(hint) or (hint,)
            for name, hint in get_type_hints(spec_type).items()}


#: How each accepted type reads in an error message.
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "a boolean", type(None): "null"}


def _check_type(name: str, value: Any, accepted: tuple) -> None:
    """Raise :class:`ExperimentError` naming ``name`` unless ``value`` has
    an ``accepted`` type.  ``int`` means exactly ``int`` (JSON ``true`` is
    no count), and a ``float`` field also takes an ``int``."""
    kind = type(value)
    if kind in accepted or (kind is int and float in accepted):
        return
    expected = " or ".join(_TYPE_NAMES[t] for t in accepted)
    _check(False, f"{name} must be {expected}, got {value!r}")
