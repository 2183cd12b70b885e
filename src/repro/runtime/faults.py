"""Deterministic fault injection for the resilient executor.

The supervisor, checkpoint and cache hardening are only trustworthy if
their failure paths are exercised, so this module provides hooks that make
failures *reproducible*: a :class:`FaultPlan` says exactly which cell
fails, how (crash / hang / raise), and for how many attempts.  The plan is
keyed by the cell descriptor or its task index, and consulted with the
supervisor's attempt number, so it needs no cross-process mutable state —
a forked worker inherits the plan and decides from ``(cell, attempt)``
alone.

Crash and hang faults model *worker-level* failures (a dead process, a
stuck cell) and therefore only fire inside worker processes; raise
faults model deterministic per-cell errors and fire on the serial path
too, which is how the exhausted-retries path is tested.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ReproError
from .policy import task_cells


class FaultInjectedError(ReproError):
    """Raised by an injected ``raise`` fault (test-only failure mode)."""


@dataclass(frozen=True)
class FaultPlan:
    """Which cells fail, how, and for how many attempts.

    Each mapping is keyed by a cell descriptor (the grid's
    ``(kind, block_bytes, which)`` tuple) **or** by the task's integer
    index in the supervisor's task list; the value is the number of
    leading attempts that fail.  A cell key matches every task that runs
    the cell — the cell itself, a group task holding it or one of its
    shard members, or a shard member alone — so it fires however the
    engine cuts the grid into tasks; an index counts tasks, not cells.
    ``crash={2: 1}`` kills the worker running the third task on its
    first attempt only — the retry succeeds.
    """

    #: attempts that hard-kill the worker process (``os._exit``).
    crash: Dict[Any, int] = field(default_factory=dict)
    #: attempts that hang (sleep ``hang_seconds``) until the timeout kills
    #: the worker.
    hang: Dict[Any, int] = field(default_factory=dict)
    #: attempts that raise :class:`FaultInjectedError` (fires on the serial
    #: fallback path as well).
    raises: Dict[Any, int] = field(default_factory=dict)
    #: attempts that SIGTERM the *parent* (supervisor) process from inside
    #: the worker, then hang — the chaos harness's "the whole sweep got
    #: killed mid-cell" scenario.  The parent's graceful-shutdown handler
    #: turns this into a drain + resumable exit; the hanging worker is
    #: cancelled during the drain.  Worker-only.
    sigterm_parent: Dict[Any, int] = field(default_factory=dict)
    #: how long a hang fault sleeps; far longer than any test timeout.
    hang_seconds: float = 3600.0

    def _times(self, table: Dict[Any, int], cell, index: Optional[int]) -> int:
        if index is not None and index in table:
            return table[index]
        # A group task fails as often as its most-faulted member.
        return max(table.get(key, 0) for key in _fault_keys(cell))

    def should_crash(self, cell, attempt: int, index: Optional[int] = None) -> bool:
        return attempt <= self._times(self.crash, cell, index)

    def should_hang(self, cell, attempt: int, index: Optional[int] = None) -> bool:
        return attempt <= self._times(self.hang, cell, index)

    def should_raise(self, cell, attempt: int, index: Optional[int] = None) -> bool:
        return attempt <= self._times(self.raises, cell, index)

    def should_sigterm_parent(self, cell, attempt: int,
                              index: Optional[int] = None) -> bool:
        return attempt <= self._times(self.sigterm_parent, cell, index)

    # ------------------------------------------------------------------
    def apply_worker(self, cell, attempt: int, index: Optional[int] = None) -> None:
        """Fire any worker-side fault for ``(cell, attempt)``.

        Called by the supervisor's worker loop before running the cell.
        """
        if self.should_crash(cell, attempt, index):
            os._exit(17)  # hard death: no cleanup, no exception propagation
        if self.should_sigterm_parent(cell, attempt, index):
            os.kill(os.getppid(), signal.SIGTERM)
            # Hang rather than complete: the interrupted parent must not
            # receive this cell's result, so the drain cancels it and
            # --resume recomputes it.
            time.sleep(self.hang_seconds)
        if self.should_hang(cell, attempt, index):
            time.sleep(self.hang_seconds)
        self.apply_serial(cell, attempt, index)

    def apply_serial(self, cell, attempt: int, index: Optional[int] = None) -> None:
        """Fire any fault that also applies to in-process execution."""
        if self.should_raise(cell, attempt, index):
            raise FaultInjectedError(
                f"injected failure for cell {cell!r} (attempt {attempt})")


def _fault_keys(task) -> list:
    """The keys a task matches: itself or a group's members, plus the
    cell of each shard member ``(kind-shard, bb, which, digest, s)``."""
    keys = []
    for member in task_cells(task):
        keys.append(member)
        kind = (member[0] if isinstance(member, (tuple, list)) and member
                else None)
        if isinstance(kind, str) and kind.endswith("-shard"):
            keys.append((kind[:-len("-shard")],) + tuple(member[1:3]))
    return keys
