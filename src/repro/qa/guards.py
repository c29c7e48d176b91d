"""Resource guards: wall-clock deadlines and budget plumbing.

The QA harness runs adversarial programs through every layer of the
stack; any of them can loop or blow up combinatorially.  Guards turn
such hangs into clean, catchable failures:

* :class:`Deadline` — a monotonic wall-clock budget whose
  :meth:`~Deadline.check` raises
  :class:`~repro.lang.errors.ResourceLimitError` once expired;
* :func:`guarded` — a context manager installing a deadline on a
  process-wide stack, so deep machinery (the interpreter's block loop,
  the alias-pair counting loops, the memoised query layer) can poll
  :func:`check_active` without threading a handle through every call;
* step budgets (``Interpreter(max_steps=...)``) and parser nesting caps
  (:data:`repro.lang.parser.MAX_NESTING_DEPTH`) live with their owners
  but raise the same ``ResourceLimitError``;
* the batch drivers' default budgets (``repro fuzz``, ``repro corpus
  run``): :data:`PER_PROGRAM_SECONDS`, :data:`MAX_STEPS` and
  :func:`default_jobs`.

``check_active`` is called on hot paths, so the no-guard case is a
single truthiness test of a per-thread list.

This module must stay import-light (stdlib + :mod:`repro.lang.errors`
only): the runtime and analysis layers import it at module load.
"""

import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.lang.errors import ResourceLimitError

__all__ = [
    "MAX_STEPS",
    "PER_PROGRAM_SECONDS",
    "Deadline",
    "ResourceLimitError",
    "active_deadline",
    "check_active",
    "default_jobs",
    "guarded",
]

#: Default per-program wall-clock bulkhead of the batch drivers, seconds.
PER_PROGRAM_SECONDS = 10.0

#: Default interpreter step budget per traced run of a batch program.
MAX_STEPS = 400_000


def default_jobs() -> int:
    """Worker processes used when callers pass ``jobs=None``."""
    return os.cpu_count() or 1


class Deadline:
    """A wall-clock budget anchored at construction time."""

    __slots__ = ("seconds", "label", "_expires_at")

    def __init__(self, seconds: float, label: str = "operation"):
        self.seconds = seconds
        self.label = label
        self._expires_at = time.monotonic() + seconds

    def remaining(self) -> float:
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self) -> None:
        if self.expired():
            raise ResourceLimitError(
                "{} exceeded its wall-clock limit of {:.3g}s".format(
                    self.label, self.seconds
                ),
                kind="wall-clock",
            )

    def __repr__(self) -> str:
        return "<Deadline {} {:.3g}s ({:.3g}s left)>".format(
            self.label, self.seconds, self.remaining()
        )


class _GuardState(threading.local):
    """Per-thread deadline stack (innermost last).

    Thread-local, not a module list: the serve daemon's HTTP transport
    runs one request per handler thread, and a request's deadline must
    never fire inside another request's analysis.  The empty case stays
    one attribute load + truthiness test.
    """

    def __init__(self):
        self.stack: List[Deadline] = []


_state = _GuardState()


def active_deadline() -> Optional[Deadline]:
    """The innermost installed deadline, or None (this thread only)."""
    stack = _state.stack
    return stack[-1] if stack else None


def check_active() -> None:
    """Raise if any installed deadline has expired; no-op otherwise.

    Checks the whole stack so an outer (shorter) deadline still fires
    while an inner guard is installed.
    """
    stack = _state.stack
    if stack:
        for deadline in stack:
            deadline.check()


@contextmanager
def guarded(seconds: Optional[float], label: str = "operation") -> Iterator[Optional[Deadline]]:
    """Install a wall-clock deadline for the duration of the block.

    ``seconds=None`` installs nothing (so callers can make guarding
    configurable without branching).  Guards nest; the effective limit
    is the tightest one on the stack.
    """
    if seconds is None:
        yield None
        return
    deadline = Deadline(seconds, label)
    _state.stack.append(deadline)
    try:
        yield deadline
    finally:
        _state.stack.remove(deadline)
