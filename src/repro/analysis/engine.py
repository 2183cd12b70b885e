"""Single-generation sweep engine.

The paper's experiments (Figures 5/6, Tables 1/2) all re-run one interleaved
trace at many block sizes, under several classifiers and protocols.  The
engine makes that cheap by doing every shareable piece of work exactly once:

* **Generate once** — a workload trace is generated a single time and cached
  in memory and on disk (:class:`~repro.trace.cache.WorkloadTraceCache`,
  keyed by workload/config/seed/version).
* **Plan once** — before its workers fork, a grid plans batches of whole
  units once per plan key (:func:`~repro.kernels.plan_batches`): one
  plan by block for its protocol, classify and compare kernel cells, at
  their largest block, and one by cache set for each cache geometry
  (block size and set count) of its multi-set finite cells.  Each plan
  is cut into ``k`` contiguous ranges of balanced row counts (``k`` is
  ``shards``, else ``jobs``).
* **Batch once** — range ``s`` of a plan is one group task of every
  cell on that plan, one :func:`~repro.kernels.run_kernel_cells` pass:
  each batch's context is built once and shared by those cells.
* **Interpreted cells run the oracles** — a cell without a kernel, and
  every cell under ``kernel="interpreted"``, calls the streaming
  classifier's or simulator's own driver (``classify_trace``,
  :func:`~repro.classify.compare.compare_classifications`,
  ``Protocol.run``, ``FiniteOTFProtocol.run``) over the trace, whole,
  in one task.
* **Fan out the grid** — range tasks and interpreted cells are
  independent, so with ``jobs > 1`` they run on supervised ``fork``
  workers (:class:`repro.runtime.supervisor.Supervisor`) that inherit the
  trace, its columns and the plans without serialization.  The
  supervisor detects
  dead workers, kills hung cells at ``timeout`` and retries under
  ``retry``; a cell that keeps failing in workers degrades to one serial
  in-process attempt before the run aborts with a structured
  :class:`~repro.errors.CellFailedError` carrying the partial grid.
* **Checkpoint completed cells** — with ``checkpoint_dir`` set, every
  finished cell is journaled durably (keyed by the trace's cache key), so
  a killed paper-scale sweep resumes re-running only the incomplete cells
  (a range task's parts are journaled together, when it completes).

Typical use::

    engine = SweepEngine.for_workload("MP3D200", jobs=4,
                                      checkpoint_dir="~/.cache/repro/ckpt")
    panel = engine.classify_sweep()              # Figure 5 panel
    grid = engine.protocol_grid((64, 1024))      # Figure 6 cells
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
import re
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..classify.breakdown import DuboisBreakdown, SimpleBreakdown
from ..classify.compare import (
    ClassificationComparison,
    compare_classifications,
)
from ..classify.dubois import DuboisClassifier
from ..classify.eggers import EggersClassifier
from ..classify.torrellas import TorrellasClassifier
from ..errors import (
    CellFailedError,
    ConfigError,
    InvariantViolationError,
    SweepInterrupted,
)
from ..kernels import (
    BatchPlan,
    KernelContext,
    merge_parts,
    plan_batches,
    resolve_kernel,
    run_kernel_cells,
    validate_kernel_mode,
)
from ..mem.addresses import BlockMap, PAPER_BLOCK_SIZES
from ..obs import RunTelemetry, current_run
from ..obs.recorder import get_recorder
from ..protocols.finite import (
    FiniteOTFProtocol,
    cache_geometry,
    finite_spec,
    parse_finite_spec,
)
from ..protocols.results import ProtocolResult
from ..protocols.runner import ALL_PROTOCOLS, make_protocol
from ..runtime.checkpoint import CheckpointJournal
from ..runtime.faults import FaultPlan
from ..runtime.policy import GROUP, shard_member, split_member, task_cells
from ..runtime import signals
from ..runtime.retry import RetryPolicy
from ..runtime.supervisor import Supervisor
from ..trace.cache import WorkloadTraceCache, workload_cache_key
from ..trace.columnar import int64_slices
from ..trace.trace import Trace
from .sweep import SweepResult

logger = logging.getLogger(__name__)

#: Classifier registry for grid cells.
CLASSIFIERS = {
    "dubois": DuboisClassifier,
    "eggers": EggersClassifier,
    "torrellas": TorrellasClassifier,
}

# A grid cell: (kind, block_bytes, which) with kind in {"classify",
# "compare", "protocol", "finite"} and which naming the classifier,
# protocol or finite-cache spec (``finite_spec``; "compare" ignores it).
# A grid cut into k > 1 ranges runs each planned cell as *shard* members
# (:func:`~repro.runtime.policy.shard_member`), whose parts merge back
# into the cell's result.  The plan digest in a member makes checkpoint
# journal keys plan-aware: a resumed sweep reuses a part only under the
# exact same plan and cut.
Cell = Tuple[str, int, Optional[str]]

#: Cell kinds whose vectorized cells run through
#: :func:`~repro.kernels.run_kernel_cells`; the cells on one batch plan
#: share it, and each of its ranges is one group task.
KERNEL_CELL_KINDS = ("protocol", "classify", "compare", "finite")


def _task_results(task, result) -> dict:
    """``{cell: result}`` of one finished task: a group's members and
    their results, else the task and its result."""
    if task[0] == GROUP:
        return dict(zip(task_cells(task), result))
    return {task: result}


def partition_dim_for(cell: Cell) -> Optional[int]:
    """The unit of the batch plan one cell (or shard member) runs over:
    the cache's set count for a finite cell (its plan is by cache set),
    ``0`` (by block) for protocol, classify and compare cells, ``None``
    for other kinds.  Its callers are the engine and the benchmark in
    ``perfbench/``, which passes it to :meth:`SharedPrecompute.shard_plan`.
    """
    kind = split_member(cell)[0][0]
    if kind == "finite":
        return cache_geometry(*parse_finite_spec(cell[2]))[0]
    if kind in KERNEL_CELL_KINDS:
        return 0
    return None


def _dim_name(unit: Optional[int]) -> Optional[str]:
    """A plan unit as telemetry names it."""
    if unit is None:
        return None
    return f"by-cache-set/{unit}" if unit else "by-block"


class SharedPrecompute:
    """One trace's columns and batch plans, and the cell runner over them.

    Kernel cells read only ``columns`` and :attr:`plans`, through
    :func:`~repro.kernels.run_kernel_cells`.  An interpreted cell runs
    its classifier's or simulator's own driver over ``trace``
    (:meth:`_dispatch_cell`), which decodes the rows it needs itself.
    ``data`` (the data-only rows, copied once) backs
    :meth:`kernel_context`, whose caller is the benchmark in
    ``perfbench/``.
    """

    def __init__(self, trace: Trace, kernel: str = "auto"):
        self.trace = trace
        self.kernel = validate_kernel_mode(kernel)
        self.columns = trace.columns()
        #: Batch accounting of the most recent vectorized cell (the last
        #: member of the latest group: ``{"rows": ..., "batches": ...,
        #: "seconds": ...}``), reset per :meth:`run_cell`.
        self.last_kernel_stats: Dict[str, int] = {}
        self._data = None
        self._data_count: Optional[int] = None
        self._kctx = None
        #: The running grid's batch plans by cell, built by the engine
        #: before its workers fork (see :meth:`SweepEngine.run_grid`);
        #: a cell without one plans its own, in one range.
        self.plans: Dict[Cell, BatchPlan] = {}

    @property
    def data(self):
        """The data-only rows, copied out of the trace on first use."""
        if self._data is None:
            self._data = self.columns.data_only()
        return self._data

    def data_count(self) -> int:
        """The number of data rows (telemetry's per-cell row count)."""
        if self._data_count is None:
            self._data_count = int(np.count_nonzero(self.columns.data_mask()))
        return self._data_count

    def resolve_cell(self, kind: str, which) -> str:
        """The execution path one cell kind takes under this precompute's
        kernel mode (``"vectorized"`` or ``"interpreted"``).  The
        benchmark in ``perfbench/`` calls it too."""
        return resolve_kernel(self.kernel, kind, which)

    def is_kernel_cell(self, cell: Cell) -> bool:
        """True for a protocol, classify, compare or finite cell that
        runs through :func:`~repro.kernels.run_kernel_cells`."""
        return self.resolve_cell(cell[0], cell[2]) == "vectorized"

    def kernel_context(self) -> "KernelContext":
        """A full-batch vectorized context over the data rows, built once.

        No cell reads it: every kernel cell runs through
        :func:`~repro.kernels.run_kernel_cells`.  Its caller is the
        benchmark in ``perfbench/``: the ``fig5-cold`` traced pass builds
        it.
        """
        if self._kctx is None:
            self._kctx = KernelContext.from_columns(self.data,
                                                    self.trace.num_procs)
        return self._kctx

    def run_kernel_cells(self, cells: Sequence[Cell],
                         plan: Optional[BatchPlan] = None, shard: int = 0,
                         stats: Optional[List[Dict]] = None) -> List:
        """Run kernel cells over one range of a batch plan (see
        :func:`~repro.kernels.run_kernel_cells`)."""
        return run_kernel_cells(self.columns, self.trace.num_procs, cells,
                                trace_name=self.trace.name or "<anonymous>",
                                plan=plan, shard=shard, stats=stats)

    # ------------------------------------------------------------------
    # batch plans
    # ------------------------------------------------------------------
    def shard_plan(self, block_map: BlockMap, num_shards: int,
                   dim: int = 0) -> BatchPlan:
        """The batch plan of whole units at one block size — blocks, or
        with ``dim`` (:func:`partition_dim_for`) that many cache sets —
        cut into ``num_shards`` ranges.

        The engine plans each grid with it; the benchmark in
        ``perfbench/`` calls it for the ``finite-j2`` shard balance
        (``shard_events``, ``max_shard_events``).
        """
        return plan_batches(self.columns, block_map.offset_bits, dim,
                            num_shards)

    def _range(self, member) -> Tuple[Optional[BatchPlan], int]:
        """The plan and range one task member runs: a shard member's
        range of its cell's plan, else all of the cell's plan (``None``:
        the runner plans one)."""
        cell, digest, index = split_member(member)
        plan = self.plans.get(cell)
        if digest is not None and (plan is None or plan.digest != digest):
            raise ConfigError(
                f"no batch plan {digest!r} for {cell!r} in this "
                f"precompute (plans are built before workers fork)")
        return plan, index

    # ------------------------------------------------------------------
    # cell execution
    # ------------------------------------------------------------------
    def run_classifier(self, which: str, block_bytes: int
                       ) -> Union[DuboisBreakdown, SimpleBreakdown]:
        """Run one classifier cell (:meth:`run_cell`)."""
        return self.run_cell(("classify", block_bytes, which))

    def run_comparison(self, block_bytes: int) -> ClassificationComparison:
        """Run all three classifiers (one Table 1 column) in one cell."""
        return self.run_cell(("compare", block_bytes, None))

    def run_protocol(self, name: str, block_bytes: int) -> ProtocolResult:
        """Run one protocol cell over the shared trace."""
        return self.run_cell(("protocol", block_bytes, name))

    def run_finite(self, spec: str, block_bytes: int) -> ProtocolResult:
        """Run one finite-cache cell (``finite_spec`` geometry).  The
        benchmark in ``perfbench/`` calls it."""
        return self.run_cell(("finite", block_bytes, spec))

    def run_cell(self, cell: Cell):
        """Run one task — a group of kernel members, a kernel cell or an
        oracle cell — timed as telemetry spans.

        This is the single instrumentation point of cell execution: the
        supervisor's workers, the serial path and the degraded fallback
        all funnel through here, so every attempt — wherever it ran —
        leaves a ``cell.run`` span (``shard.run`` for a shard member;
        ``status="error"`` when it raised) plus row-count and throughput
        metrics.  A group task (``("group", member, ...)``) runs its
        members through one :func:`~repro.kernels.run_kernel_cells` pass
        over one plan range and returns their results as a tuple; a
        kernel cell is a group of one that returns its result.  A group
        leaves one span per member, timed by that member's summed kernel
        time.  Any other cell runs its oracle (:meth:`_dispatch_cell`).
        With telemetry off the wrapper is a single attribute check.  The
        benchmark in ``perfbench/`` calls it too.
        """
        rec = get_recorder()
        if cell[0] == GROUP:
            return self._run_group(task_cells(cell), rec)
        if self.is_kernel_cell(split_member(cell)[0]):
            return self._run_group([cell], rec)[0]
        self.last_kernel_stats = {}
        if not rec.active:
            return self._dispatch_cell(cell)
        dim = _dim_name(partition_dim_for(cell))
        wall = time.time()
        t0 = time.monotonic()
        status = "error"
        try:
            result = self._dispatch_cell(cell)
            status = "ok"
            return result
        finally:
            self._record_span(rec, cell, time.monotonic() - t0, wall, dim,
                              "interpreted", {}, status=status)

    def _run_group(self, members: List, rec) -> tuple:
        stats = [{} for _ in members]
        self.last_kernel_stats = stats[-1]
        wall = time.time()
        t0 = time.monotonic()
        status = "error"
        try:
            results = tuple(self.run_kernel_cells(
                [split_member(m)[0] for m in members],
                *self._range(members[0]), stats))
            status = "ok"
            return results
        finally:
            if rec.active:
                # The members ran interleaved, batch by batch: lay their
                # spans end to end, each as long as its kernel time.  The
                # members of a failed group failed together: their error
                # spans overlap, each as long as the group's time so far.
                elapsed = time.monotonic() - t0
                ok = status == "ok"
                for member, st in zip(members, stats):
                    dur = st.get("seconds", 0.0) if ok else elapsed
                    self._record_span(rec, member, dur, wall,
                                      _dim_name(partition_dim_for(member)),
                                      "vectorized", st, status=status)
                    if ok:
                        wall += dur

    def _record_span(self, rec, member, dur: float, wall: float,
                     dim: Optional[str], kernel: Optional[str],
                     stats: Dict, status: str = "ok") -> None:
        """One member's ``cell.run``/``shard.run`` span, plus, when it
        succeeded, its row, throughput and kernel-batch metrics."""
        shard = split_member(member)[1] is not None
        rows = self.data_count()
        if shard:
            try:
                plan, s = self._range(member)
                rows = plan.shard_events[s]
            except ConfigError:  # unknown plan: the dispatch raised
                pass
        cell = list(member)
        rec.span_complete("shard.run" if shard else "cell.run", dur,
                          status=status, t=wall, cell=cell, rows=rows,
                          partition_dim=dim, kernel=kernel)
        if status != "ok":
            return
        rec.metric("cell.rows", rows, cell=cell)
        if dur > 0:
            rec.metric("cell.events_per_sec", round(rows / dur, 1),
                       unit="events/s", cell=cell)
        if stats.get("batches"):
            rec.metric("kernel.batch", stats["batches"],
                       cell=cell, rows=stats["rows"],
                       events_per_batch=round(stats["rows"]
                                              / stats["batches"], 1))

    def _dispatch_cell(self, cell: Cell):
        """One cell's streaming oracle over the whole trace."""
        kind, block_bytes, which = cell[:3]
        if kind == "classify":
            if which not in CLASSIFIERS:
                raise ConfigError(f"unknown classifier {which!r}; known: "
                                  f"{sorted(CLASSIFIERS)}")
            return CLASSIFIERS[which].classify_trace(self.trace,
                                                     BlockMap(block_bytes))
        if kind == "compare":
            return compare_classifications(self.trace, block_bytes)
        if kind == "protocol":
            return make_protocol(which, self.trace.num_procs,
                                 BlockMap(block_bytes)).run(self.trace)
        if kind == "finite":
            capacity, ways = parse_finite_spec(which)
            return FiniteOTFProtocol(self.trace.num_procs,
                                     BlockMap(block_bytes), capacity,
                                     ways=ways).run(self.trace)
        raise ConfigError(f"unknown grid cell kind {kind!r}")


# ----------------------------------------------------------------------
# execution options
# ----------------------------------------------------------------------
def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None or jobs <= 0:
        # Respect the CPU affinity mask (cgroup/container limits) rather
        # than the raw core count, so constrained runs don't oversubscribe.
        try:
            return len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """Resilience knobs threaded from the CLI into :class:`SweepEngine`.

    Everything defaults to the engine's own defaults, so ``None`` (or a
    default-constructed instance) reproduces plain engine behaviour.
    """

    #: Retry policy for failed/hung cells (``None``: engine default).
    retry: Optional[RetryPolicy] = None
    #: Per-cell stall timeout in seconds (``None``: no stall detection).
    timeout: Optional[float] = None
    #: Journal completed cells under this directory and resume from it
    #: (``None``: no checkpointing; ``""``: the default checkpoint dir).
    checkpoint_dir: Optional[str] = None
    #: Raise :class:`~repro.errors.InvariantViolationError` on a post-cell
    #: invariant violation instead of warning.
    strict_invariants: bool = False
    #: Deterministic fault injection (tests only).
    fault_plan: Optional[FaultPlan] = None
    #: Ranges each grid's batch plans are cut into (``None``/``0``: the
    #: worker count; ``1``: one range, no shard tasks).
    shards: Optional[int] = None
    #: Record run telemetry (spans, metrics, manifest) under this
    #: directory (``--telemetry``); ``None`` disables recording.
    telemetry_dir: Optional[str] = None
    #: Execution-path selection (``--kernel``): ``auto`` and
    #: ``vectorized`` are the same path, the vectorized kernels wherever
    #: one exists; ``interpreted`` forces the streaming oracles everywhere.
    kernel: str = "auto"

    def engine_kwargs(self) -> dict:
        return {"retry": self.retry, "timeout": self.timeout,
                "checkpoint_dir": self.checkpoint_dir,
                "strict_invariants": self.strict_invariants,
                "fault_plan": self.fault_plan,
                "shards": self.shards,
                "telemetry_dir": self.telemetry_dir,
                "kernel": self.kernel}


class SweepEngine:
    """Generate-once, precompute-once, fan-out experiment driver.

    Parameters
    ----------
    trace:
        The interleaved trace every grid cell runs over.
    jobs:
        Worker processes for grid fan-out.  ``1`` (default) runs serially
        in-process; ``None`` or ``0`` means one per available CPU (the
        affinity mask, not the raw core count).  Parallel execution
        requires the ``fork`` start method (it is skipped, falling back to
        serial, where unavailable).
    retry:
        :class:`~repro.runtime.retry.RetryPolicy` for failed or hung grid
        cells (default: 3 worker attempts with capped exponential
        backoff, then one serial in-process fallback attempt).
    timeout:
        Per-cell *stall* seconds: a worker whose heartbeat progress
        counter stops advancing for this long is presumed hung and its
        cell retried; a slow but progressing cell is never killed.
        ``None`` (default) disables stall detection.
    checkpoint_dir:
        When set, every completed cell is journaled durably under this
        directory, keyed by ``(trace key, cell)``, and a later run over
        the same trace skips the journaled cells.  ``""`` selects
        :func:`repro.runtime.checkpoint.default_checkpoint_dir`.
    strict_invariants:
        Escalate post-cell invariant violations from warnings to
        :class:`~repro.errors.InvariantViolationError`.
    fault_plan:
        Deterministic :class:`~repro.runtime.faults.FaultPlan` (tests).
    shards:
        The number ``k`` of ranges each grid's batch plans are cut into
        (see :meth:`run_grid`).  ``None`` or ``0`` (default) is the
        configured ``jobs``; ``1`` runs the kernel cells as one task.
        The parts of the ranges merge to results bit-identical to one
        range.
    telemetry_dir:
        Record run telemetry under this directory (``--telemetry``): a
        per-run subdirectory with an ``events.jsonl`` span/metric stream
        and a queryable ``manifest.json`` (see :mod:`repro.obs`).  When a
        :class:`~repro.obs.RunTelemetry` is already active (the CLI's
        command-scoped run), the engine joins it instead of opening a
        nested one.
    progress:
        Render the live stderr progress line while a grid runs (only
        when this engine opened its own telemetry run).
    trace_key:
        Stable identity of the trace for checkpoint keying; defaults to
        the workload's trace-cache key via :meth:`for_workload`, else a
        content hash of the trace arrays.
    """

    def __init__(self, trace: Trace, *, jobs: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 checkpoint_dir: Optional[str] = None,
                 strict_invariants: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 shards: Optional[int] = None,
                 telemetry_dir: Optional[str] = None,
                 progress: bool = False,
                 trace_key: Optional[str] = None,
                 kernel: str = "auto"):
        self.trace = trace
        self.kernel = validate_kernel_mode(kernel)
        self.jobs = 1 if jobs == 1 else _resolve_jobs(jobs)
        self.retry = retry
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be > 0 seconds, got {timeout}")
        self.timeout = timeout
        self.checkpoint_dir = checkpoint_dir
        self.strict_invariants = strict_invariants
        self.fault_plan = fault_plan
        if shards is not None and shards < 0:
            raise ConfigError(f"shards must be >= 0, got {shards}")
        self.shards = shards or None  # 0 normalizes to the worker count
        self.telemetry_dir = telemetry_dir
        self.progress = progress
        self._trace_key = trace_key
        self._precompute: Optional[SharedPrecompute] = None

    @classmethod
    def for_workload(cls, name: str, *, jobs: int = 1,
                     cache: Optional[WorkloadTraceCache] = None,
                     cache_dir: Optional[str] = None,
                     **kwargs) -> "SweepEngine":
        """Build an engine over a named workload's cached trace.

        The trace is generated at most once per (workload, config, seed,
        version) and reloaded from ``cache_dir`` afterwards.  Checkpoint
        journals of such engines are keyed by the same cache key, so the
        checkpoint invalidates exactly when the cached trace does.
        """
        cache = cache or WorkloadTraceCache(cache_dir)
        wl = cache._resolve(name)
        return cls(cache.get(wl), jobs=jobs,
                   trace_key=workload_cache_key(wl), **kwargs)

    @property
    def precompute(self) -> SharedPrecompute:
        """The trace's shared derived columns (built lazily, cached)."""
        if self._precompute is None:
            self._precompute = SharedPrecompute(self.trace,
                                                kernel=self.kernel)
        return self._precompute

    @property
    def trace_key(self) -> str:
        """Stable trace identity used to key the checkpoint journal."""
        if self._trace_key is None:
            cols = self.trace.columns()
            h = hashlib.sha1()
            h.update(f"{self.trace.name}|{self.trace.num_procs}".encode())
            for arr in (cols.proc, cols.op, cols.addr):
                # Over the int64 values, so the key does not depend on
                # the dtypes the columns are held in.
                h.update(str(len(arr)).encode())
                for part in int64_slices(arr):
                    h.update(part)
            name = re.sub(r"[^A-Za-z0-9_-]+", "_",
                          self.trace.name or "trace")
            self._trace_key = f"{name}-{h.hexdigest()[:16]}"
        return self._trace_key

    # ------------------------------------------------------------------
    # grid execution
    # ------------------------------------------------------------------
    def _plan_grid(self, cells: List[Cell]) -> Dict[Cell, BatchPlan]:
        """The grid's batch plans by cell, each cut into ``k`` ranges:
        one plan per plan key, by block for the vectorized protocol,
        classify and compare cells, at their largest block, and by cache
        set for each (block size, set count) of the vectorized
        (multi-set) finite cells.  Interpreted cells have none: they run
        whole."""
        pre = self.precompute
        k = self.shards or self.jobs
        on_key: Dict[Tuple[int, int], List[Cell]] = {}
        for cell in cells:
            if pre.is_kernel_cell(cell):
                sets = partition_dim_for(cell)
                on_key.setdefault((cell[1] if sets else 0, sets),
                                  []).append(cell)
        plans = {}
        for (block, sets), members in on_key.items():
            block = block or max(c[1] for c in members)
            plans.update(dict.fromkeys(
                members, pre.shard_plan(BlockMap(block), k, dim=sets)))
        return plans

    def run_grid(self, cells: Sequence[Cell]) -> List:
        """Run every cell, returning results in cell order.

        Execution is supervised: worker crashes and per-cell hangs are
        retried per the engine's :class:`RetryPolicy`; completed cells are
        journaled when ``checkpoint_dir`` is set (and cells already in the
        journal are returned without recomputation); each fresh result
        passes the post-cell invariant guard before being accepted.

        Before any worker forks, the grid plans its batches once
        (:meth:`_plan_grid`) and cuts each plan into ``k`` ranges of
        balanced row counts (``k``: ``shards``, else ``jobs``).  Range
        ``s`` of a plan is one group task that runs every vectorized
        cell on that plan over the range's batches.  With ``k > 1`` a
        task's results are parts, journaled under plan-digest-qualified
        shard keys, so a resumed sweep re-runs only incomplete ranges
        and never mixes two plans; the merged cell is then journaled
        under its plain key, exactly like a one-range run.  Interpreted
        cells run whole, one task each.

        A task's memory is bounded by its batches, not by the trace, so
        a worker the kernel OOM killer does take (SIGKILL, classified
        ``oom``) is retried and then run serially like any crashed one;
        the fallback returns the same results.

        With ``telemetry_dir`` set (and no run already being recorded),
        the whole grid is recorded as one :class:`~repro.obs.RunTelemetry`
        run: sweep lifecycle events, per-cell spans, resume and failure
        events, and a ``manifest.json`` folded from the stream.
        """
        if self.telemetry_dir is not None and current_run() is None:
            with RunTelemetry(self.telemetry_dir, progress=self.progress,
                              config=self._telemetry_config()):
                return self._run_grid(cells)
        return self._run_grid(cells)

    def _telemetry_config(self) -> dict:
        return {"trace": self.trace.name, "jobs": self.jobs,
                "shards": self.shards, "timeout": self.timeout,
                "checkpoint_dir": self.checkpoint_dir,
                "kernel": self.kernel}

    def _run_grid(self, cells: Sequence[Cell]) -> List:
        cells = [tuple(cell) for cell in cells]
        rec = get_recorder()
        # The sweep span, under the run's root: every plan/cell/shard/
        # merge span of this grid — including ones emitted in forked
        # workers, whose parent ids ride the assign messages — hangs
        # off it, so `repro report` attributes the grid's time cell by
        # cell.
        # (The trace key hashes the whole trace: only a recorded run
        # reads it here.)
        with rec.span("sweep.run", trace=self.trace.name,
                      trace_key=self.trace_key if rec.active else None,
                      cells=len(cells)):
            return self._run_grid_journaled(cells, rec)

    def _run_grid_journaled(self, cells: List[Tuple], rec) -> List:
        journal = None
        completed: Dict[Tuple, object] = {}
        if self.checkpoint_dir is not None:
            journal = CheckpointJournal(self.checkpoint_dir or None,
                                        self.trace_key,
                                        kernel=self.kernel)
            completed = journal.load()
            journal.open()
        resumed = set()
        if rec.active:
            rec.event("sweep.start", trace=self.trace.name,
                      trace_key=self.trace_key,
                      num_procs=self.trace.num_procs,
                      events=len(self.trace), cells=len(cells),
                      jobs=self.jobs)
            logger.info("sweep over %s: %d cell(s), jobs=%d",
                        self.trace.name, len(cells), self.jobs)
            resumed = {c for c in cells if c in completed}
            for cell in sorted(resumed, key=repr):
                rec.event("cell.resumed", cell=list(cell),
                          trace_key=self.trace_key)
            if resumed:
                logger.info("resuming %d journaled cell(s) from %s",
                            len(resumed), self.trace_key)
        pre = self.precompute
        try:
            with rec.span("plan"):
                pre.plans = self._plan_grid(
                    [c for c in dict.fromkeys(cells) if c not in completed])
            # A shutdown requested while the grid planned must not fork.
            signals.check_interrupt()
            results = self._run_grid_tasks(cells, completed, journal)
            if journal is not None:
                # The grid is complete: fold duplicate records and
                # absorbed range parts so the next resume replays a
                # minimal journal.
                journal.compact()
            rec.event("sweep.finish",
                      trace_key=self.trace_key if rec.active else None,
                      cells=len(cells))
            run = current_run()
            if run is not None:
                for cell, result in zip(cells, results):
                    run.cell_result(
                        self.trace_key, cell, result,
                        source="journal" if cell in resumed
                        else "computed")
            return results
        finally:
            pre.plans = {}
            if journal is not None:
                journal.close()

    def _run_grid_tasks(self, cells: List[Tuple],
                        completed: Dict[Tuple, object],
                        journal: Optional[CheckpointJournal]) -> List:
        """The tasks still to run, fanned out over ``jobs`` workers, merged.

        ``completed`` carries the journaled results (keyed by cell or
        shard member), so a resumed grid re-runs only what no earlier
        run finished.
        """
        pre = self.precompute
        pending = list(dict.fromkeys(c for c in cells if c not in completed))
        # A planned cell cut into k > 1 ranges runs as k shard members;
        # each range of a plan is one group task of all its members.
        shards_of: Dict[Tuple, List[Tuple]] = {}
        members_of: Dict[Tuple, List[Tuple]] = {}
        ranges: Dict[Tuple[str, int], List[Tuple]] = {}
        task_of: Dict[Tuple, Tuple] = {}
        for cell in pending:
            plan = pre.plans.get(cell)
            members = [cell]
            if plan is not None and plan.num_ranges > 1:
                members = shards_of[cell] = [
                    shard_member(cell, plan.digest, s)
                    for s in range(plan.num_ranges)]
            members_of[cell] = members
            for s, member in enumerate(members):
                if member in completed:
                    continue
                if plan is None:
                    task_of[member] = member
                else:
                    ranges.setdefault((plan.digest, s), []).append(member)
        for members in ranges.values():
            task_of.update(dict.fromkeys(members, (GROUP,) + tuple(members)))
        # In grid order: each plan's ranges at its first cell, every
        # other task at its cell.
        tasks: List[Tuple] = list(dict.fromkeys(
            task_of[m] for cell in pending for m in members_of[cell]
            if m in task_of))
        jobs = min(self.jobs, len(tasks)) if tasks else 1

        rec = get_recorder()
        if rec.active:
            k = max((p.num_ranges for p in pre.plans.values()), default=1)
            rec.event("fanout.start", tasks=len(tasks), jobs=jobs, shards=k)
            logger.info("fan-out: %d task(s), jobs=%d, shards=%d",
                        len(tasks), jobs, k)

        def on_result(task, result):
            for cell, part in _task_results(task, result).items():
                self._guard_cell(cell, part)
                if journal is not None:
                    journal.record(cell, part)

        supervisor = Supervisor(pre.run_cell, jobs=jobs, retry=self.retry,
                                timeout=self.timeout,
                                fault_plan=self.fault_plan)
        try:
            task_results = supervisor.run(tasks, on_result=on_result)
        except (CellFailedError, SweepInterrupted) as exc:
            # Salvaged group results go back to the caller cell by cell.
            exc.partial = {cell: part
                           for task, result in exc.partial.items()
                           for cell, part in _task_results(task,
                                                           result).items()}
            raise
        done = dict(completed)
        for task, result in zip(tasks, task_results):
            done.update(_task_results(task, result))
        results = []
        for cell in cells:
            if cell in shards_of and cell not in done:
                with rec.span("merge", cell=list(cell),
                              shards=len(shards_of[cell])) as merge:
                    merged = merge_parts(
                        cell, [done[m] for m in shards_of[cell]])
                self._guard_cell(cell, merged)
                if journal is not None:
                    journal.record(cell, merged)
                run = current_run()
                if run is not None:
                    # A sharded cell never ran as one task; synthesize
                    # its cell.run span over the merge's interval so the
                    # merged timeline keeps exactly one ok cell.run span
                    # per grid cell.
                    run.merged_cell(self.trace_key, cell,
                                    len(shards_of[cell]), merge)
                done[cell] = merged  # duplicate cells in the grid
            results.append(done[cell])
        return results

    # ------------------------------------------------------------------
    # post-cell invariant guards
    # ------------------------------------------------------------------
    def _guard_cell(self, cell: Cell, result) -> None:
        """Check the paper's invariants that are free to verify per cell."""
        from .invariants import (
            check_cold_agreement_ours_eggers,
            check_total_miss_agreement,
        )

        if cell[0] != "compare":
            return
        violations = (check_total_miss_agreement(result)
                      + check_cold_agreement_ours_eggers(result))
        if violations:
            self._report_violations(violations, context=f"cell {cell!r}")

    def _report_violations(self, violations: List[str],
                           *, context: str) -> None:
        message = (f"invariant violation in {context}: "
                   + "; ".join(violations))
        if self.strict_invariants:
            raise InvariantViolationError(message, violations)
        warnings.warn(message, stacklevel=3)

    # ------------------------------------------------------------------
    # the paper's sweeps
    # ------------------------------------------------------------------
    def classify_sweep(self, block_sizes: Optional[Sequence[int]] = None,
                       *, classifier: str = "dubois") -> SweepResult:
        """Figure 5 panel: one classifier across block sizes."""
        sizes = tuple(block_sizes or PAPER_BLOCK_SIZES)
        cells = [("classify", bb, classifier) for bb in sizes]
        breakdowns = tuple(self.run_grid(cells))
        result = SweepResult(trace_name=self.trace.name or "<anonymous>",
                             block_sizes=sizes, breakdowns=breakdowns)
        if classifier == "dubois" and list(sizes) == sorted(sizes):
            from .invariants import check_block_size_monotonicity

            violations = check_block_size_monotonicity(result)
            if violations:
                self._report_violations(
                    violations,
                    context=f"classify sweep of {result.trace_name}")
        return result

    def compare_sweep(self, block_sizes: Optional[Sequence[int]] = None
                      ) -> Dict[int, ClassificationComparison]:
        """Table 1 columns: the three-way comparison across block sizes."""
        sizes = tuple(block_sizes or PAPER_BLOCK_SIZES)
        cells = [("compare", bb, None) for bb in sizes]
        return dict(zip(sizes, self.run_grid(cells)))

    def protocol_grid(self, block_sizes: Sequence[int],
                      protocols: Optional[Sequence[str]] = None
                      ) -> Dict[Tuple[int, str], ProtocolResult]:
        """Figure 6 cells: every (block size × protocol) combination."""
        names = list(protocols) if protocols is not None else list(ALL_PROTOCOLS)
        sizes = tuple(block_sizes)
        cells = [("protocol", bb, name) for bb in sizes for name in names]
        results = self.run_grid(cells)
        return {(bb, name): result
                for (_, bb, name), result in zip(cells, results)}

    def finite_sweep(self, capacities: Sequence[int], *,
                     block_bytes: int = 16, ways: Optional[int] = None
                     ) -> Dict[int, ProtocolResult]:
        """Section 8.0 extension: finite-cache cells across capacities.

        Multi-set geometries (``ways`` set and smaller than capacity)
        shard ``by-cache-set`` under the two-level scheduler exactly like
        protocol cells shard by block.
        """
        caps = tuple(capacities)
        cells = [("finite", block_bytes, finite_spec(c, ways))
                 for c in caps]
        return dict(zip(caps, self.run_grid(cells)))
