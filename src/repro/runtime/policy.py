"""The failure policy: what happens after the n-th failure of class K.

Every failure the sweep runtime sees is first *classified* into one of
:data:`FAIL_KINDS` — by :func:`classify_exception` for a raised exception,
by :func:`classify_exitcode` for a dead worker process, or by the stall
watchdog (a worker whose progress stopped is ``hang``).  :data:`POLICY`
then maps ``(scope, kind)`` to the ordered actions taken on successive
failures:

* ``pool`` — a cell on a fork worker: ``retry`` after
  :meth:`RetryPolicy.delay` while ``attempts < max_attempts``, then one
  ``serial`` in-process attempt (``where="serial-fallback"``), then
  ``abort`` (:class:`~repro.errors.CellFailedError`, exit 2);
* ``serial`` — a cell run in-process (``jobs=1``, one task, no fork):
  ``retry`` up to ``max_attempts`` attempts, then ``abort``.

Every kind takes the same row; the kinds differ only in what they
count (``oom_failures``, ``timeouts``) and in how the attempt history
reads.  The supervisor only carries out the action decided here, and
every decision is logged and emitted as a ``task.failed`` telemetry
event from this module.
"""

from __future__ import annotations

import logging
import signal
import traceback
from typing import Dict, Optional, Sequence, Tuple

from ..obs import get_recorder
from .retry import RetryPolicy

logger = logging.getLogger(__name__)

#: Every class a failure can be sorted into.
FAIL_KINDS = ("error", "crash", "exit", "hang", "oom")

#: ``scope -> fail kind -> actions``, in the order successive failures
#: take them.  ``retry`` repeats while the scope's budget lasts; every
#: other action is taken at most once.
POLICY: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "pool": dict.fromkeys(FAIL_KINDS, ("retry", "serial", "abort")),
    "serial": dict.fromkeys(FAIL_KINDS, ("retry", "abort")),
}

_NEXT_STEP = {"retry": "retrying after backoff",
              "serial": "queued for serial fallback",
              "abort": "aborting the run"}


#: First element of a *group task*: ``("group", cell, cell, ...)`` runs
#: several grid cells as one task (the sweep engine's kernel groups).
GROUP = "group"


def task_cells(task) -> list:
    """The grid cells one task covers: a group's members, else the task."""
    if isinstance(task, (tuple, list)) and task and task[0] == GROUP:
        return list(task[1:])
    return [task]


def task_label(task) -> str:
    """A task named for a log line: a group by its member count, cell
    kinds, block sizes and plan range (the telemetry ``attrs`` keep
    every member), any other task by its ``repr``."""
    members = task_cells(task)
    if members == [task]:
        return repr(task)
    kinds = "/".join(dict.fromkeys(m[0] for m in members))
    blocks = sorted({m[1] for m in members})
    label = (f"group of {len(members)} {kinds} cells at "
             f"B={blocks[0]}..{blocks[-1]}")
    # Shard members end in (plan digest, range).
    return label + (f", range {members[0][4]}" if len(members[0]) > 4
                    else "")


def task_attr(task):
    """A task rendered for telemetry ``attrs`` (grid cells are tuples)."""
    if isinstance(task, (tuple, list)):
        return list(task)
    return task


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def classify_exception(exc: BaseException) -> dict:
    """A failed attempt's history fields: traceback text and fail kind.

    Call it inside the ``except`` block that caught ``exc``.  A
    ``MemoryError`` is ``oom``; anything else is ``error``.
    """
    kind = "oom" if isinstance(exc, MemoryError) else "error"
    return {"error": traceback.format_exc(limit=20), "kind": kind}


#: Signals whose delivery usually means the kernel (or an operator)
#: reclaimed memory: the OOM killer sends SIGKILL, full cgroups likewise.
_OOM_SIGNALS = frozenset({int(signal.SIGKILL)} if hasattr(signal, "SIGKILL")
                         else set())


def _signal_name(signum: int) -> str:
    try:
        return signal.Signals(signum).name
    except ValueError:
        return f"signal {signum}"


def classify_exitcode(exitcode: Optional[int]) -> Tuple[str, str]:
    """Classify a dead worker's exit status: ``(kind, description)``.

    ``kind`` is one of:

    * ``"oom"`` — killed by SIGKILL (negative exitcode from
      ``multiprocessing``, or the shell-style ``128 + signum`` form,
      e.g. 137): on a healthy run the only SIGKILL sender is the kernel
      OOM killer, so it is counted as an out-of-memory death (and
      retried like a crash);
    * ``"crash"`` — any other signal (SIGSEGV, SIGABRT, ...) or a
      nonzero exit: a genuine bug, retried under the normal policy;
    * ``"exit"`` — exit status 0 with work outstanding (a worker that
      vanished cleanly mid-task, e.g. a stray ``sys.exit``).

    The description always spells out the signal by name
    (``signal.Signals(-exitcode).name``) so ``CellFailedError`` attempt
    histories say ``SIGKILL``, not ``exitcode -9``.
    """
    if exitcode is None:
        return "crash", "worker died (exit status unknown)"
    if exitcode < 0 or exitcode > 128:
        signum = -exitcode if exitcode < 0 else exitcode - 128
        name = _signal_name(signum)
        if signum in _OOM_SIGNALS:
            return "oom", (f"worker killed by {name} (exitcode {exitcode}): "
                           f"likely the kernel OOM killer")
        return "crash", f"worker killed by {name} (exitcode {exitcode})"
    if exitcode == 0:
        return "exit", "worker exited cleanly with work outstanding"
    return "crash", f"worker died (exitcode {exitcode})"


# ----------------------------------------------------------------------
# cell scope
# ----------------------------------------------------------------------
def cell_failed(att, retry: RetryPolicy) -> str:
    """Decide, and announce, what follows a cell's failed attempt.

    ``att`` is the supervisor's attempt record; its last history entry
    holds the failure's ``where`` and ``kind``.  Returns ``"retry"``,
    ``"serial"`` or ``"abort"``.
    """
    entry = att.history[-1]
    where, kind = entry.get("where", "worker"), entry.get("kind", "error")
    in_pool = where not in ("serial", "serial-fallback")
    row = POLICY["pool" if where != "serial" else "serial"].get(kind)
    if row is None:
        raise ValueError(f"no failure policy for fail kind {kind!r}")
    applies = {
        "retry": (where != "serial-fallback"
                  and att.attempts < retry.max_attempts),
        "serial": in_pool,
        "abort": True,
    }
    action = next(a for a in row if applies[a])
    detail_lines = (entry.get("error") or "").strip().splitlines()
    detail = detail_lines[-1] if detail_lines else "unknown failure"
    log = logger.error if action == "abort" else logger.warning
    log("task %s attempt %d failed in %s (%s): %s; %s",
        task_label(att.task), att.attempts, where, kind, detail,
        _NEXT_STEP[action])
    get_recorder().event(
        "task.failed", level="error" if action == "abort" else "warning",
        cell=task_attr(att.task), attempt=att.attempts, fail_kind=kind,
        action="fallback" if action == "serial" else action)
    return action


def cells_abandoned(tasks: Sequence) -> None:
    """Announce the in-flight cells a graceful shutdown cancels."""
    for task in tasks:
        get_recorder().event("task.failed", level="warning",
                             cell=task_attr(task), fail_kind="interrupted",
                             action="abandon")
