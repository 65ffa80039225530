"""Run-wide resource limits shared by the enumerator, the analyses and the driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import ResourceLimitError


@dataclass
class Limits:
    """Budget for one synthesis run.

    ``max_traces`` bounds the executions one enumeration yields: every
    consistent one, or only the buggy ones.  ``timeout_secs`` is a global
    soft deadline, running from the construction of the ``Limits``
    (``start`` restarts it), that every exponential search checks inside
    its loops, order assignment included, and ``max_iters`` bounds the fix
    passes of the iterative (one-trace-at-a-time) driver: a buggy trace
    left after that many passes is a limit error.
    """

    max_traces: int | None = None
    timeout_secs: float | None = None
    max_iters: int = 64
    _deadline: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.start()

    def start(self) -> "Limits":
        """Restart the wall-clock deadline; returns self for chaining."""
        if self.timeout_secs is not None:
            self._deadline = time.monotonic() + self.timeout_secs
        else:
            self._deadline = None
        return self

    def check_time(self, phase: str) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ResourceLimitError(phase, "timeout")

