"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` et al.) propagate.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Standard process exit codes
# ---------------------------------------------------------------------------
# The CLI (and the chaos harness's sweep children) exit with exactly one of
# these.  ``EXIT_INTERRUPTED`` follows BSD sysexits' ``EX_TEMPFAIL``: the
# run was cut short but left a consistent checkpoint journal, so re-running
# with ``--resume`` completes it.  Note that individual commands may also
# use exit code 1 for an *unclean result* that is not an error (e.g.
# ``repro validate`` on a racy trace).

#: The command ran to completion.
EXIT_COMPLETED = 0
#: The command failed with a :class:`ReproError` (bad input, cell failure
#: after all retries, invariant violation, ...).  Not resumable as-is.
EXIT_FAILED = 2
#: A memory or disk budget could not be satisfied even after the
#: degradation ladder (:class:`ResourceExhaustedError`).  Resumable on a
#: bigger machine or with a larger budget.
EXIT_RESOURCE_EXHAUSTED = 3
#: The sweep was interrupted (SIGINT/SIGTERM) after a graceful drain; the
#: checkpoint journal holds every completed cell and ``--resume`` re-runs
#: only the incomplete ones.  75 == sysexits EX_TEMPFAIL.
EXIT_INTERRUPTED = 75


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TraceError(ReproError):
    """A trace is malformed (bad event, bad processor id, bad opcode...)."""


class TraceFormatError(TraceError):
    """A serialized trace could not be parsed."""


class DataRaceError(TraceError):
    """A trace contains a data race.

    The delayed protocols (RD/SD/SRD) are only correct for race-free traces
    that conform to release consistency (paper section 5.0), so the validator
    raises this when two conflicting accesses are unordered by happens-before.
    """

    def __init__(self, message: str, first=None, second=None):
        super().__init__(message)
        #: The two conflicting events, when known (``(index, event)`` pairs).
        self.first = first
        self.second = second


class LayoutError(ReproError):
    """Invalid memory layout request (overlap, bad alignment, bad size)."""


class ConfigError(ReproError):
    """Invalid configuration value for a workload, protocol or sweep."""


class SimulationError(ReproError):
    """The simulated multiprocessor reached an illegal state (deadlock,

    a generator yielded a malformed operation, a barrier was re-entered
    inconsistently, ...).
    """


class DeadlockError(SimulationError):
    """All runnable threads are blocked on synchronization."""


class ProtocolError(ReproError):
    """A coherence-protocol simulator reached an inconsistent state."""


class CacheIntegrityError(TraceFormatError):
    """A cached trace entry failed its integrity check (bad checksum,

    truncated archive).  The trace cache quarantines such entries and
    regenerates them, so consumers normally never see this escape
    :meth:`repro.trace.cache.WorkloadTraceCache.get`.
    """


class CellFailedError(ReproError):
    """A sweep grid cell exhausted every execution attempt.

    Raised by the resilient execution layer (:mod:`repro.runtime`) only
    after worker retries *and* the serial in-process fallback have failed.
    Carries enough structure for the caller to salvage the run.
    """

    def __init__(self, message: str, *, cell=None, attempts=(),
                 partial=None):
        super().__init__(message)
        #: The grid cell that failed, e.g. ``("classify", 64, "dubois")``.
        self.cell = cell
        #: Attempt history: ``[{"attempt", "where", "error"}, ...]``.
        self.attempts = list(attempts)
        #: Results of the cells that *did* complete, ``{cell: result}``.
        self.partial = dict(partial or {})


class ResourceExhaustedError(ReproError):
    """A memory or disk budget was (or would be) exceeded.

    Raised by the resource governor (:mod:`repro.runtime.resources`) in
    three situations:

    * a supervised worker exceeded its ``RLIMIT_AS`` soft cap and raised
      a clean :class:`MemoryError` (or was SIGKILLed by the kernel OOM
      killer) — the supervisor converts either into this error so the
      sweep engine's degradation ladder can re-plan instead of
      crash-looping the same oversized configuration;
    * a disk free-space preflight found less space than a trace-cache
      entry or checkpoint journal needs;
    * preflight admission could not fit even one worker under the
      configured ``--memory-budget``.

    ``kind`` distinguishes the resource (``"memory"`` or ``"disk"``);
    memory-kind failures are the ones the degradation ladder reacts to.
    """

    def __init__(self, message: str, *, kind: str = "memory", cell=None,
                 attempts=(), partial=None, limit_bytes=None,
                 needed_bytes=None):
        super().__init__(message)
        #: ``"memory"`` or ``"disk"``.
        self.kind = kind
        #: The grid cell/task whose attempt exhausted the budget, if any.
        self.cell = cell
        #: Attempt history (same shape as :class:`CellFailedError`).
        self.attempts = list(attempts)
        #: Results of tasks that completed before the exhaustion.
        self.partial = dict(partial or {})
        #: The budget that was hit, in bytes (when known).
        self.limit_bytes = limit_bytes
        #: The estimated requirement that did not fit (when known).
        self.needed_bytes = needed_bytes


class CheckpointError(ReproError):
    """A sweep checkpoint journal could not be read or written."""


class StaleJournalError(CheckpointError):
    """A checkpoint journal was written by an incompatible code version.

    The journal header carries a digest of the journal format version and
    the ``repro`` release that wrote it; resuming against a journal whose
    digest no longer matches would silently mix results computed by
    different code, so the journal is rejected instead.  Delete the
    journal (or run without ``--resume``) to recompute from scratch.
    """


class SweepInterrupted(BaseException):
    """A sweep was stopped by a graceful-shutdown request (SIGINT/SIGTERM).

    Deliberately *not* a :class:`ReproError` — it derives from
    ``BaseException`` (like :class:`KeyboardInterrupt`) so that the retry
    and fallback machinery's ``except Exception`` clauses never mistake an
    operator interrupt for a failed cell and burn retry budget on it.
    Whoever catches it (the CLI, the chaos harness) should exit with
    :data:`EXIT_INTERRUPTED`.
    """

    def __init__(self, message: str = "sweep interrupted", *,
                 completed_cells: int = 0, partial=None):
        super().__init__(message)
        #: Number of cells durably journaled before the interrupt.
        self.completed_cells = completed_cells
        #: Results of cells that completed in this process, ``{cell: result}``.
        self.partial = dict(partial or {})


class InvariantViolationError(ReproError):
    """A post-cell invariant check failed in ``--strict-invariants`` mode.

    The same violations are reported as warnings when strict mode is off.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        #: The human-readable violation strings from
        #: :mod:`repro.analysis.invariants`.
        self.violations = list(violations)
