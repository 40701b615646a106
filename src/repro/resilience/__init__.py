"""Resilience layer: deterministic chaos injection and supervised recovery.

Three small pieces, used together across the fsim/cache/server stack:

:mod:`repro.resilience.chaos`
    Named, seeded fault-injection sites armed by ``REPRO_CHAOS`` or a
    programmatic :class:`ChaosPlan`; off-path cost is a single branch.
:mod:`repro.resilience.supervisor`
    :class:`RetryPolicy` — attempts, per-attempt deadline, backoff, and
    the degrade-or-raise decision — consumed by the sharded engine.
:mod:`repro.resilience.context`
    :func:`record` routes every absorbed failure to telemetry counters,
    a structured log line, and the thread-local context a ``Flow.run``
    wraps around itself so ``summary()`` can report ``degraded=True``.
"""

from repro.resilience.chaos import (
    CHAOS_ENV_VAR,
    SITES,
    ChaosConfigError,
    ChaosInjected,
    ChaosPlan,
    SiteSpec,
    active_plan,
    chaos_plan,
    fire,
    install_plan,
    param,
)
from repro.resilience.context import (
    ResilienceContext,
    ResilienceEvent,
    baseline_summary,
    collecting,
    current,
    record,
)
from repro.resilience.supervisor import PolicyConfigError, RetryPolicy

__all__ = [
    "CHAOS_ENV_VAR",
    "SITES",
    "ChaosConfigError",
    "ChaosInjected",
    "ChaosPlan",
    "SiteSpec",
    "active_plan",
    "chaos_plan",
    "fire",
    "install_plan",
    "param",
    "ResilienceContext",
    "ResilienceEvent",
    "baseline_summary",
    "collecting",
    "current",
    "record",
    "PolicyConfigError",
    "RetryPolicy",
]
