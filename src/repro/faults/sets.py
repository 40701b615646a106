"""Fault status of a test-generation run.

:class:`~repro.atpg.engine.TestGenResult` keeps one :class:`FaultStatus`
per target fault in its ``status`` map.
"""

from __future__ import annotations

from enum import Enum


class FaultStatus(Enum):
    """Lifecycle of a target fault during test generation."""

    UNDETECTED = "undetected"
    DETECTED = "detected"
    UNDETECTABLE = "undetectable"
    ABORTED = "aborted"

