"""Run-wide resource limits shared by the enumerator, the analyses and the driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import ResourceLimitError


@dataclass
class Limits:
    """Budget for one synthesis run.

    ``max_traces`` bounds how many consistent executions the enumerator may
    see.  Buggy-trace enumeration counts the same executions: with the
    bound set, it also checks consistency on the candidates that satisfy
    the assertion, which it otherwise drops unchecked.  ``timeout_secs`` is
    a global soft deadline (armed by ``start``) that every exponential
    search checks inside its loops, order assignment included, and
    ``max_iters`` bounds the fix passes of the iterative
    (one-trace-at-a-time) driver: a buggy trace left after that many
    passes is a limit error.
    """

    max_traces: int | None = None
    timeout_secs: float | None = None
    max_iters: int = 64
    _deadline: float | None = field(default=None, repr=False)

    def start(self) -> "Limits":
        """Arm the wall-clock deadline; returns self for chaining."""
        if self.timeout_secs is not None:
            self._deadline = time.monotonic() + self.timeout_secs
        else:
            self._deadline = None
        return self

    def check_time(self, phase: str) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ResourceLimitError(phase, "timeout")


def ensure_started(limits: Limits | None) -> Limits:
    """Arm a fresh deadline unless the caller already did."""
    if limits is None:
        return Limits().start()
    if limits._deadline is None:
        limits.start()
    return limits
