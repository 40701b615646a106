"""Monotonic deadlines: one request budget split across sequential waits.

A :class:`Deadline` is an absolute point on the monotonic clock.  The
pattern everywhere a budget must be split across sequential waits —
"wait for the in-flight computation, but only for what's left of the
request budget" — is::

    deadline = Deadline.after(server.request_timeout)   # None -> None
    ...
    entry.wait(remaining_timeout(deadline))
"""

from __future__ import annotations

import time
from typing import Optional


class Deadline:
    """An absolute monotonic-clock deadline."""

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = float(at)

    @classmethod
    def after(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """A deadline ``seconds`` from now, or ``None`` for no deadline."""
        if seconds is None:
            return None
        return cls(time.monotonic() + float(seconds))

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(in {self.remaining():.3f}s)"


def remaining_timeout(deadline: Optional[Deadline]) -> Optional[float]:
    """A deadline's remaining budget as a wait timeout.

    Returns ``None`` for no deadline (wait forever).  An expired
    deadline clamps to ``0.0`` so waits return immediately rather than
    raising.
    """
    if deadline is None:
        return None
    return max(0.0, deadline.remaining())
