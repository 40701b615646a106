"""Deterministic, seeded fault injection behind a single-branch gate.

Infrastructure role: the "chaos" half of the resilience layer.  A
:class:`ChaosPlan` arms a set of *named injection sites* — fixed points
in the production code (shard workers, the cache write path, the server
handler) that ask :func:`fire` whether a failure should be injected
right now.  With no plan installed the hot path is one module-global
``None`` check, so production cost is ~zero; with a plan installed each
armed site draws from its **own** seeded :class:`random.Random` stream,
so a given ``REPRO_CHAOS`` spec reproduces the exact same failure
sequence on every run regardless of thread/process interleaving of the
*other* sites.

Activation is either programmatic::

    with chaos_plan(ChaosPlan({"shard.worker.crash": 1.0})):
        engine.detection_matrix(faults)      # every shard map crashes

or via the environment, read once at import (a process started with a
different ``REPRO_CHAOS`` gets a different plan)::

    REPRO_CHAOS="shard.worker.crash:0.25:1234,cache.write.enospc:1.0"

Spec grammar: comma-separated ``site:prob[:seed[:max_fires]]`` entries.
``max_fires`` caps how many times a site triggers — ``:1`` turns a
crash site into "fail once, then recover", the shape retry logic is
meant to absorb.

Each actual injection increments ``repro_resilience_injections_total``
on the ambient (thread-scoped) telemetry registry, so firings inside
shard worker processes ride home in the shard snapshot merge.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from repro.errors import ResilienceError
from repro.telemetry import get_registry

#: Environment variable holding the injection spec.
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Counter family bumped once per actual injection, labelled by site.
INJECTIONS_METRIC = "repro_resilience_injections_total"

#: The registry of legal injection sites.  ``fire()`` on a name outside
#: this table raises — a typo in a hook or a plan should fail loudly,
#: not silently never trigger.
SITES: Dict[str, str] = {
    "shard.worker.crash": "raise inside a shard worker before it simulates (simulated crash)",
    "shard.worker.hang": "sleep inside a shard worker past the shard deadline (param: seconds)",
    "cache.write.enospc": "raise OSError(ENOSPC) at the top of the artifact-cache write path",
    "cache.read.corrupt": "truncate artifact text after read, exercising corrupt-entry recovery",
    "server.handler.slow": "sleep in the flow server's leader compute path (param: seconds)",
}


class ChaosConfigError(ResilienceError):
    """A chaos spec or plan references an unknown site or bad value."""


class ChaosInjected(ResilienceError):
    """The error raised *by* an injection site that simulates a crash."""


def _default_seed(site: str) -> int:
    """A stable per-site seed so unspecified seeds are still reproducible."""
    return int(hashlib.sha256(site.encode("utf-8")).hexdigest()[:8], 16)


class SiteSpec:
    """One armed site: probability, seed, optional fire cap and params."""

    __slots__ = ("name", "probability", "seed", "max_fires", "params")

    def __init__(self, name: str, probability: float, *,
                 seed: Optional[int] = None,
                 max_fires: Optional[int] = None,
                 params: Optional[Mapping[str, Any]] = None) -> None:
        if name not in SITES:
            known = ", ".join(sorted(SITES))
            raise ChaosConfigError(
                f"unknown chaos site {name!r}; known sites: {known}")
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:
            raise ChaosConfigError(
                f"chaos site {name!r}: probability must be in [0, 1], "
                f"got {probability!r}")
        if max_fires is not None and max_fires < 1:
            raise ChaosConfigError(
                f"chaos site {name!r}: max_fires must be >= 1, "
                f"got {max_fires!r}")
        self.name = name
        self.probability = probability
        self.seed = _default_seed(name) if seed is None else int(seed)
        self.max_fires = max_fires
        self.params = dict(params or {})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SiteSpec({self.name!r}, {self.probability!r}, "
                f"seed={self.seed!r}, max_fires={self.max_fires!r})")


class _SiteState:
    """Runtime state for one armed site: its RNG stream and fire count."""

    __slots__ = ("spec", "rng", "fires", "lock")

    def __init__(self, spec: SiteSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.fires = 0
        self.lock = threading.Lock()

    def draw(self) -> bool:
        with self.lock:
            if self.spec.max_fires is not None and self.fires >= self.spec.max_fires:
                return False
            if self.spec.probability <= 0.0:
                return False
            if self.spec.probability < 1.0 and self.rng.random() >= self.spec.probability:
                return False
            self.fires += 1
            return True


class ChaosPlan:
    """A set of armed injection sites with deterministic firing streams.

    Accepts a mapping of site name to probability (floats) or to a full
    :class:`SiteSpec` for seeds / fire caps / params.
    """

    def __init__(self, sites: Mapping[str, Union[float, SiteSpec]]) -> None:
        self._states: Dict[str, _SiteState] = {}
        for name, value in sites.items():
            spec = value if isinstance(value, SiteSpec) else SiteSpec(name, value)
            if spec.name != name:
                raise ChaosConfigError(
                    f"plan key {name!r} disagrees with spec name {spec.name!r}")
            self._states[name] = _SiteState(spec)

    @classmethod
    def from_spec(cls, text: str) -> "ChaosPlan":
        """Parse the ``REPRO_CHAOS`` grammar: ``site:prob[:seed[:max_fires]],...``."""
        sites: Dict[str, SiteSpec] = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields = chunk.split(":")
            if len(fields) < 2 or len(fields) > 4:
                raise ChaosConfigError(
                    f"bad {CHAOS_ENV_VAR} entry {chunk!r}: expected "
                    "site:prob[:seed[:max_fires]]")
            name = fields[0].strip()
            try:
                probability = float(fields[1])
            except ValueError:
                raise ChaosConfigError(
                    f"bad {CHAOS_ENV_VAR} entry {chunk!r}: probability "
                    f"{fields[1]!r} is not a float") from None
            seed: Optional[int] = None
            max_fires: Optional[int] = None
            try:
                if len(fields) >= 3 and fields[2].strip():
                    seed = int(fields[2])
                if len(fields) == 4 and fields[3].strip():
                    max_fires = int(fields[3])
            except ValueError:
                raise ChaosConfigError(
                    f"bad {CHAOS_ENV_VAR} entry {chunk!r}: seed and "
                    "max_fires must be integers") from None
            if name in sites:
                raise ChaosConfigError(
                    f"duplicate {CHAOS_ENV_VAR} site {name!r}")
            sites[name] = SiteSpec(name, probability, seed=seed,
                                   max_fires=max_fires)
        if not sites:
            raise ChaosConfigError(
                f"{CHAOS_ENV_VAR} spec {text!r} armed no sites")
        return cls(sites)

    def to_spec(self) -> str:
        """Render back to the env grammar (params are not representable)."""
        parts = []
        for name in sorted(self._states):
            spec = self._states[name].spec
            entry = f"{name}:{spec.probability:g}:{spec.seed}"
            if spec.max_fires is not None:
                entry += f":{spec.max_fires}"
            parts.append(entry)
        return ",".join(parts)

    def sites(self) -> Dict[str, SiteSpec]:
        return {name: state.spec for name, state in self._states.items()}

    def fire(self, site: str, **detail: Any) -> bool:
        if site not in SITES:
            known = ", ".join(sorted(SITES))
            raise ChaosConfigError(
                f"unknown chaos site {site!r}; known sites: {known}")
        state = self._states.get(site)
        if state is None or not state.draw():
            return False
        counter = get_registry().counter(
            INJECTIONS_METRIC,
            "Chaos injections actually fired, by site.")
        counter.labels(site=site).inc()
        return True

    def param(self, site: str, key: str, default: Any = None) -> Any:
        state = self._states.get(site)
        if state is None:
            return default
        return state.spec.params.get(key, default)

    def fires(self, site: str) -> int:
        """How many times ``site`` has actually fired under this plan."""
        state = self._states.get(site)
        return 0 if state is None else state.fires


def _load_env_plan() -> Optional[ChaosPlan]:
    spec = os.environ.get(CHAOS_ENV_VAR, "").strip()
    if not spec:
        return None
    return ChaosPlan.from_spec(spec)


#: The installed plan.  ``None`` (the default) makes every ``fire()``
#: call a single attribute load plus an ``is None`` check.
_plan: Optional[ChaosPlan] = _load_env_plan()


def active_plan() -> Optional[ChaosPlan]:
    """The currently installed plan, or ``None``."""
    return _plan


def install_plan(plan: Optional[ChaosPlan]) -> Optional[ChaosPlan]:
    """Install ``plan`` process-wide; returns the previous plan."""
    global _plan
    previous = _plan
    _plan = plan
    return previous


@contextmanager
def chaos_plan(plan: Optional[ChaosPlan]) -> Iterator[Optional[ChaosPlan]]:
    """Temporarily install ``plan``, restoring the previous one on exit."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def fire(site: str, **detail: Any) -> bool:
    """Should ``site`` inject a failure right now?

    The production fast path: with no plan installed this is one global
    read and one ``is None`` branch.
    """
    plan = _plan
    if plan is None:
        return False
    return plan.fire(site, **detail)


def param(site: str, key: str, default: Any = None) -> Any:
    """A per-site tuning knob (e.g. hang duration) from the active plan."""
    plan = _plan
    if plan is None:
        return default
    return plan.param(site, key, default)
