"""Resilient execution layer for the sweep engine.

The paper's headline experiments are long grid sweeps; this package makes
them survive partial failure:

* :class:`~repro.runtime.supervisor.Supervisor` — supervised fork workers
  with per-cell tracking, crash detection, stall timeouts, retries and
  graceful degradation to serial execution;
* :mod:`~repro.runtime.policy` — the failure policy: one table from a
  classified failure to the ordered actions that follow it (retry, serial
  fallback, the OOM ladder, abort), plus the classifiers that sort
  failures into its kinds;
* :class:`~repro.runtime.retry.RetryPolicy` — capped exponential backoff;
* :class:`~repro.runtime.checkpoint.CheckpointJournal` — durable JSONL
  journal of completed cells so a killed sweep resumes without
  recomputation;
* :class:`~repro.runtime.faults.FaultPlan` — deterministic fault
  injection (crash / hang / raise / exhaust-memory / corrupt) that makes
  all of the above testable;
* :mod:`~repro.runtime.resources` — the resource governor: calibrated
  footprint model and preflight admission under ``--memory-budget``,
  per-worker ``RLIMIT_AS`` soft caps, and disk-budget helpers for the
  trace cache and checkpoint directories;
* :mod:`~repro.runtime.signals` — two-phase graceful shutdown
  (SIGINT/SIGTERM → drain → resumable exit; second signal forces) and
  the progress counter behind the worker heartbeat / stall watchdog.
"""

from .checkpoint import CheckpointJournal, default_checkpoint_dir
from .faults import FaultInjectedError, FaultPlan, exhaust_address_space
from .policy import FAIL_KINDS, POLICY, classify_exitcode
from .resources import (
    DEFAULT_FOOTPRINT_MODEL,
    Admission,
    FootprintModel,
    apply_worker_rlimit,
    ensure_free_space,
    estimate_cell_bytes,
    format_size,
    parse_size,
    peak_rss_bytes,
    plan_admission,
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
    "Admission",
    "CheckpointJournal",
    "DEFAULT_FOOTPRINT_MODEL",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_TMP_MAX_AGE_S",
    "FAIL_KINDS",
    "FaultInjectedError",
    "FaultPlan",
    "FootprintModel",
    "HEARTBEAT_CHUNK",
    "POLICY",
    "RetryPolicy",
    "ShutdownCoordinator",
    "Supervisor",
    "apply_worker_rlimit",
    "check_interrupt",
    "classify_exitcode",
    "default_checkpoint_dir",
    "ensure_free_space",
    "estimate_cell_bytes",
    "exhaust_address_space",
    "format_size",
    "gc_stale_tmp",
    "get_shutdown",
    "graceful_shutdown",
    "note_progress",
    "peak_rss_bytes",
    "plan_admission",
    "resolve_tmp_max_age",
]
