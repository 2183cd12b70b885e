"""Resilient execution layer for the sweep engine.

The paper's headline experiments are long grid sweeps; this package makes
them survive partial failure:

* :class:`~repro.runtime.supervisor.Supervisor` — supervised fork workers
  with per-cell tracking, crash detection, stall timeouts, retries and
  a serial in-process fallback;
* :mod:`~repro.runtime.policy` — the failure policy: one table from a
  classified failure to the ordered actions that follow it (retry, serial
  fallback, abort), plus the classifiers that sort failures into its
  kinds;
* :class:`~repro.runtime.retry.RetryPolicy` — capped exponential backoff;
* :class:`~repro.runtime.checkpoint.CheckpointJournal` — durable JSONL
  journal of completed cells so a killed sweep resumes without
  recomputation;
* :class:`~repro.runtime.faults.FaultPlan` — deterministic fault
  injection (crash / hang / raise / SIGTERM-the-parent) that makes all
  of the above testable;
* :mod:`~repro.runtime.resources` — disk-budget helpers for the trace
  cache and checkpoint directories, size parsing and the peak-RSS
  reading;
* :mod:`~repro.runtime.signals` — two-phase graceful shutdown
  (SIGINT/SIGTERM → drain → resumable exit; second signal forces) and
  the progress counter behind the worker heartbeat / stall watchdog.
"""

from .checkpoint import CheckpointJournal, default_checkpoint_dir
from .faults import FaultInjectedError, FaultPlan
from .policy import FAIL_KINDS, POLICY, classify_exitcode
from .resources import (
    ensure_free_space,
    format_size,
    parse_size,
    peak_rss_bytes,
)
from .resources import (
    DEFAULT_TMP_MAX_AGE_S,
    gc_stale_tmp,
    resolve_tmp_max_age,
)
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .signals import (
    HEARTBEAT_CHUNK,
    ShutdownCoordinator,
    check_interrupt,
    get_shutdown,
    graceful_shutdown,
    note_progress,
)
from .supervisor import Supervisor

__all__ = [
    "CheckpointJournal",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_TMP_MAX_AGE_S",
    "FAIL_KINDS",
    "FaultInjectedError",
    "FaultPlan",
    "HEARTBEAT_CHUNK",
    "POLICY",
    "RetryPolicy",
    "ShutdownCoordinator",
    "Supervisor",
    "check_interrupt",
    "classify_exitcode",
    "default_checkpoint_dir",
    "ensure_free_space",
    "format_size",
    "gc_stale_tmp",
    "get_shutdown",
    "graceful_shutdown",
    "note_progress",
    "peak_rss_bytes",
    "resolve_tmp_max_age",
]
