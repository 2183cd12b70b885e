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
  ``abort`` (:class:`~repro.errors.CellFailedError`, exit 2).  An ``oom``
  first ``degrade``\\ s — hands the whole run to the ``run`` row — while
  that row has a step left;
* ``serial`` — a cell run in-process (``jobs=1``, one task, no fork):
  ``retry`` up to ``max_attempts`` attempts, then ``abort``;
* ``run`` — the OOM ladder (:class:`OomLadder`): ``halve_jobs``, then
  ``raise_shards`` at the halved concurrency, then ``serial`` in-process,
  each skipped when it would not change the run and each keeping the
  salvaged partials; then ``abort`` (the hand-off's
  :class:`~repro.errors.ResourceExhaustedError`, exit 3).

The supervisor and the engine's grid loop only carry out the action
decided here, and every decision is logged and emitted as telemetry
(``task.failed``, ``ladder.step``) from this module.
"""

from __future__ import annotations

import logging
import signal
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ResourceExhaustedError
from ..obs import get_recorder
from .resources import warn_resource
from .retry import RetryPolicy

logger = logging.getLogger(__name__)

#: Every class a failure can be sorted into.
FAIL_KINDS = ("error", "crash", "exit", "hang", "oom")

#: ``scope -> fail kind -> actions``, in the order successive failures
#: take them.  ``retry`` repeats while the scope's budget lasts, and
#: ``degrade`` while the ``run`` row has a step left; every other action
#: is taken at most once.
POLICY: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "pool": {**dict.fromkeys(FAIL_KINDS, ("retry", "serial", "abort")),
             "oom": ("degrade", "retry", "serial", "abort")},
    "serial": dict.fromkeys(FAIL_KINDS, ("retry", "abort")),
    "run": {"oom": ("halve_jobs", "raise_shards", "serial", "abort")},
}

_NEXT_STEP = {"retry": "retrying after backoff",
              "serial": "queued for serial fallback",
              "degrade": "handing off to the degradation ladder",
              "abort": "aborting the run"}


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
    ``MemoryError`` and a memory-kind
    :class:`~repro.errors.ResourceExhaustedError` are ``oom``; anything
    else is ``error``.
    """
    kind = "error"
    if isinstance(exc, MemoryError):
        kind = "oom"
    elif isinstance(exc, ResourceExhaustedError):
        kind = "oom" if exc.kind == "memory" else "error"
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
      OOM killer, so the policy treats it as an out-of-memory death;
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
def cell_failed(att, retry: RetryPolicy,
                ladder: Optional["OomLadder"] = None) -> str:
    """Decide, and announce, what follows a cell's failed attempt.

    ``att`` is the supervisor's attempt record; its last history entry
    holds the failure's ``where`` and ``kind``.  ``ladder`` is the run's
    :class:`OomLadder` when a caller above the supervisor re-plans the run
    on ``degrade``.  Returns ``"retry"``, ``"serial"``, ``"degrade"`` or
    ``"abort"``.
    """
    entry = att.history[-1]
    where, kind = entry.get("where", "worker"), entry.get("kind", "error")
    in_pool = where not in ("serial", "serial-fallback")
    row = POLICY["pool" if where != "serial" else "serial"].get(kind)
    if row is None:
        raise ValueError(f"no failure policy for fail kind {kind!r}")
    applies = {
        "degrade": in_pool and ladder is not None and not ladder.spent,
        "retry": (where != "serial-fallback"
                  and att.attempts < retry.max_attempts),
        "serial": in_pool,
        "abort": True,
    }
    action = next(a for a in row if applies[a])
    detail_lines = (entry.get("error") or "").strip().splitlines()
    detail = detail_lines[-1] if detail_lines else "unknown failure"
    log = logger.error if action == "abort" else logger.warning
    log("task %r attempt %d failed in %s (%s): %s; %s",
        att.task, att.attempts, where, kind, detail, _NEXT_STEP[action])
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


# ----------------------------------------------------------------------
# run scope: the OOM ladder
# ----------------------------------------------------------------------
class OomLadder:
    """The ``run`` row for ``oom``, carried out on one run's configuration.

    Starts at the configured ``(jobs, shards)``.  Each OOM hand-off from a
    worker pool (:meth:`step`) takes the row's next action that changes
    the run: halve the worker count (if ``1 < jobs // 2 < jobs``), double
    the shard count at the halved concurrency (if ``jobs // 2 > 1``), run
    serial in-process (always last).  The caller re-runs with the new
    :attr:`jobs`/:attr:`shards`, keeping the salvaged partials.
    """

    def __init__(self, jobs: int, shards: Optional[int]):
        self.jobs, self.shards, self.label = jobs, shards, "configured"
        half = max(1, jobs // 2)
        self._steps: List[Tuple[int, Optional[int], str]] = []
        for action in POLICY["run"]["oom"]:
            if action == "halve_jobs" and 1 < half < jobs:
                self._steps.append(
                    (half, shards, f"halved workers ({jobs} -> {half})"))
            elif action == "raise_shards" and half > 1:
                doubled = max(2, (shards if shards and shards > 1 else 1) * 2)
                self._steps.append(
                    (half, doubled, f"raised shard count to {doubled}"))
            elif action == "serial":
                self._steps.append((1, 1, "serial in-process"))

    @property
    def spent(self) -> bool:
        """True on the last step: the next OOM hand-off aborts."""
        return not self._steps

    def step(self, exc: ResourceExhaustedError) -> None:
        """Carry out the next action after ``exc``; re-raise it to abort."""
        if exc.kind != "memory" or self.spent:
            raise exc
        jobs, shards, label = self._steps.pop(0)
        salvaged = len(exc.partial)
        get_recorder().event("ladder.step", level="warning", rung=self.label,
                             next_rung=label, salvaged=salvaged)
        detail = str(exc).splitlines()[0]
        warn_resource(f"OOM-class failure at rung {self.label!r} ({detail}); "
                      f"degrading to {label!r} with {salvaged} task(s) "
                      f"salvaged")
        self.jobs, self.shards, self.label = jobs, shards, label
