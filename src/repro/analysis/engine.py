"""Single-generation sweep engine.

The paper's experiments (Figures 5/6, Tables 1/2) all re-run one interleaved
trace at many block sizes, under several classifiers and protocols.  The
engine makes that cheap by doing every shareable piece of work exactly once:

* **Generate once** — a workload trace is generated a single time and cached
  in memory and on disk (:class:`~repro.trace.cache.WorkloadTraceCache`,
  keyed by workload/config/seed/version).
* **Precompute once** — :class:`SharedPrecompute` decodes the columnar
  trace's data rows a single time (vectorized data-op prefilter), derives
  acquire/release indices and per-processor segments, and caches the
  per-block-size derived columns (block ids via one vectorized
  ``addr >> shift``) shared by every cell at that block size.
* **Fan out the grid** — the (block size × classifier/protocol) cells are
  independent, so with ``jobs > 1`` they run on supervised ``fork``
  workers (:class:`repro.runtime.supervisor.Supervisor`) that inherit the
  trace and its precompute without serialization.  The supervisor detects
  dead workers, kills hung cells at ``timeout`` and retries under
  ``retry``; a cell that keeps failing in workers degrades to one serial
  in-process attempt before the run aborts with a structured
  :class:`~repro.errors.CellFailedError` carrying the partial grid.
* **Checkpoint completed cells** — with ``checkpoint_dir`` set, every
  finished cell is journaled durably (keyed by the trace's cache key), so
  a killed paper-scale sweep resumes re-running only the incomplete cells.

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
from ..classify.compare import ClassificationComparison
from ..classify.dubois import DuboisClassifier
from ..classify.eggers import EggersClassifier
from ..classify.torrellas import TorrellasClassifier
from ..errors import (
    ConfigError,
    InvariantViolationError,
    ResourceExhaustedError,
)
from ..kernels import (
    CLASSIFIER_KERNELS,
    KernelContext,
    resolve_kernel,
    run_finite_kernel,
    run_protocol_kernel,
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
from ..protocols.results import ProtocolResult, merge_shard_results
from ..protocols.runner import ALL_PROTOCOLS, make_protocol
from ..protocols.sharding import (
    BY_BLOCK,
    SHARDABLE_PROTOCOLS,
    PartitionDim,
    ShardPlan,
    by_cache_set,
    plan_shards,
    run_finite_shard,
    run_protocol_shard,
)
from ..runtime.checkpoint import CheckpointJournal
from ..runtime.faults import FaultPlan
from ..runtime.policy import OomLadder
from ..runtime.resources import (
    estimate_cell_bytes,
    format_size,
    plan_admission,
    resolve_memory_budget,
    warn_resource,
)
from ..runtime import signals
from ..runtime.retry import RetryPolicy
from ..runtime.supervisor import Supervisor
from ..trace.cache import WorkloadTraceCache, workload_cache_key
from ..trace.events import ACQUIRE, RELEASE, STORE
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
# The two-level scheduler additionally emits *shard* subtasks —
# ("<kind>-shard", block_bytes, which, plan_digest, shard_index) — whose
# results are per-shard partials merged back into the parent cell's
# result.  The plan digest in the tuple makes checkpoint journal keys
# shard-plan-aware: a resumed sweep reuses a partial only under the exact
# same partition (the digest also embeds the partition dimension, so
# by-block and by-cache-set partials can never mix).
Cell = Tuple[str, int, Optional[str]]


def _feed_chunked(clf, *cols) -> None:
    """Feed a classifier its columns in heartbeat-sized slices.

    All three classifier ``feed_data`` implementations are re-entrant
    (their cursors live on ``self``), so slicing the columns and calling
    repeatedly is state-identical to one big call.  Between slices the
    engine ticks the runtime's progress counter, which both feeds the
    worker heartbeat (stall watchdog) and acts as a cancellation point
    for graceful shutdown — at zero per-event cost inside the hot loops.
    """
    n = len(cols[0])
    step = signals.HEARTBEAT_CHUNK
    if n <= step:
        clf.feed_data(*cols)
        signals.note_progress(n)
        return
    for start in range(0, n, step):
        clf.feed_data(*(c[start:start + step] for c in cols))
        signals.note_progress(min(step, n - start))


def partition_dim_for(cell: Cell) -> Optional[PartitionDim]:
    """The partition dimension one cell (or shard subtask) shards along.

    Protocol, classify and compare cells all partition ``by-block`` (the
    classifiers reuse the protocols' dimension without sync replication);
    finite-cache cells partition ``by-cache-set`` for their geometry.
    Returns ``None`` for kinds that never shard.
    """
    kind = cell[0]
    if kind.endswith("-shard"):
        kind = kind[:-len("-shard")]
    if kind == "finite":
        capacity, ways = parse_finite_spec(cell[2])
        return by_cache_set(cache_geometry(capacity, ways)[0])
    if kind in ("protocol", "classify", "compare"):
        return BY_BLOCK
    return None


class SharedPrecompute:
    """Derived columns of one trace, shared across every sweep cell.

    Everything here is computed at most once per trace (lazily) no matter
    how many block sizes, classifiers or protocols consume it:

    * ``data`` — the columnar data-only rows (LOAD/STORE prefilter);
    * :meth:`data_rows` — those rows decoded to plain-int lists, which is
      what the streaming classifier loops iterate;
    * :meth:`data_blocks` / :meth:`data_offset_bits` — per-block-size
      derived columns (one vectorized shift/mask each, then decoded once);
    * ``acquire_indices`` / ``release_indices`` — global positions of the
      synchronization events (the delayed protocols' schedule points);
    * :meth:`per_processor_segments` — each processor's event positions.
    """

    def __init__(self, trace: Trace, kernel: str = "auto"):
        self.trace = trace
        self.kernel = validate_kernel_mode(kernel)
        self.columns = trace.columns()
        self.data = self.columns.data_only()
        sync = self.columns.sync_indices()
        self.acquire_indices = sync[ACQUIRE]
        self.release_indices = sync[RELEASE]
        #: Heartbeat/batch accounting of the most recent vectorized cell
        #: (``{"rows": ..., "batches": ...}``), reset per :meth:`run_cell`
        #: and surfaced as the ``kernel.batch`` telemetry metric.
        self.last_kernel_stats: Dict[str, int] = {}
        self._kctx = None
        self._protocol_ctxs: Dict[int, list] = {}
        self._shard_ctx: Optional[Tuple[Tuple, KernelContext]] = None
        self._rows: Optional[Tuple[list, list, list]] = None
        self._blocks: Dict[int, list] = {}
        self._offset_bits: Dict[int, list] = {}
        self._keep_masks: Dict[int, Optional[np.ndarray]] = {}
        self._active_rows: Dict[int, Tuple[tuple, int]] = {}
        self._segments: Optional[List] = None
        self._shard_plans: Dict[Tuple[str, int, int], ShardPlan] = {}
        self._plans_by_digest: Dict[str, ShardPlan] = {}

    def resolve_cell(self, kind: str, which) -> str:
        """The execution path one cell kind takes under this precompute's
        kernel mode (``"vectorized"`` or ``"interpreted"``)."""
        return resolve_kernel(self.kernel, kind, which)

    def kernel_context(self) -> "KernelContext":
        """The full-batch vectorized context, built once per trace.

        Word-granularity tables inside it are block-size independent, so
        every vectorized cell of a sweep shares this one context; only
        the per-block-size views differ (cached inside the context).
        """
        if self._kctx is None:
            self._kctx = KernelContext.from_columns(self.data,
                                                    self.trace.num_procs)
        return self._kctx

    def _shard_kernel_context(self, digest: str, shard: int,
                              sel: np.ndarray) -> "KernelContext":
        """An ephemeral context over one shard's data rows.

        A shard keeps whole (block, processor) histories, so kernels over
        the subset reproduce the oracle-on-subtrace exactly (the kernels'
        order-only legality argument).  One slot is cached so the three
        classifiers of a compare-shard share a context, like the full
        batch does.
        """
        key = (digest, shard)
        if self._shard_ctx is None or self._shard_ctx[0] != key:
            ctx = KernelContext(self.data.proc[sel], self.data.op[sel],
                                self.data.addr[sel], self.trace.num_procs)
            self._shard_ctx = (key, ctx)
        return self._shard_ctx[1]

    def data_rows(self) -> Tuple[list, list, list]:
        """``(procs, ops, addrs)`` of the data rows, decoded once."""
        if self._rows is None:
            self._rows = (self.data.proc.tolist(), self.data.op.tolist(),
                          self.data.addr.tolist())
        return self._rows

    def data_blocks(self, block_map: BlockMap) -> list:
        """Precomputed block address per data row at one block size."""
        bits = block_map.offset_bits
        if bits not in self._blocks:
            self._blocks[bits] = self.data.block_ids(bits).tolist()
        return self._blocks[bits]

    def data_offset_bits(self, block_map: BlockMap) -> list:
        """Precomputed ``1 << word_offset`` per data row at one block size.

        Computed from the vectorized offsets; the shift stays in Python
        because ``1 << offset`` can exceed 63 bits for large blocks.
        """
        wpb = block_map.words_per_block
        if wpb not in self._offset_bits:
            offsets = self.data.word_offsets(wpb).tolist()
            self._offset_bits[wpb] = [1 << o for o in offsets]
        return self._offset_bits[wpb]

    def dubois_keep_mask(self, block_map: BlockMap) -> Optional[np.ndarray]:
        """Boolean mask over the data rows of the Appendix A *active* rows.

        A read is provably a no-op in the Appendix A algorithm when it is
        not the first access by its processor to its block and no *other*
        processor ever stores to that block anywhere in the trace: the
        reader's presence bit is then already set and can never have been
        cleared (only a remote store clears it), and its C flag can never
        be set (only a remote store sets it).  Dropping such reads leaves
        every state transition — and therefore every count — identical.
        Stores and first touches are always kept.  The filter itself is a
        handful of vectorized passes over the columnar arrays.

        Since the criterion is per (block, processor), the mask composes
        with block sharding: a shard feeds its rows where the mask holds
        and re-adds its own dropped-row count to ``data_refs``.

        Returns ``None`` when the filter does not apply (processor counts
        that overflow an int64 bitmask).
        """
        bits = block_map.offset_bits
        if bits not in self._keep_masks:
            num_procs = self.trace.num_procs
            if num_procs > 62:
                self._keep_masks[bits] = None
                return None
            blocks = self.data.block_ids(bits)
            procs = self.data.proc
            store = self.data.op == STORE
            proc_bits = np.int64(1) << procs
            unique_blocks, inverse = np.unique(blocks, return_inverse=True)
            writers = np.zeros(len(unique_blocks), dtype=np.int64)
            np.bitwise_or.at(writers, inverse[store], proc_bits[store])
            keep = store | ((writers[inverse] & ~proc_bits) != 0)
            pair_key = inverse * np.int64(num_procs) + procs
            _, first_touch = np.unique(pair_key, return_index=True)
            keep[first_touch] = True
            self._keep_masks[bits] = keep
        return self._keep_masks[bits]

    def dubois_active_rows(self, block_map: BlockMap
                           ) -> Tuple[Optional[tuple], int]:
        """Data rows that can change Dubois state at one block size.

        Returns ``((procs, ops, addrs, blocks), dropped)`` where the lists
        hold only *active* rows (per :meth:`dubois_keep_mask`) and
        ``dropped`` is the number of elided rows (they still count as data
        references).  Returns ``(None, 0)`` when the filter does not apply.
        """
        bits = block_map.offset_bits
        if bits not in self._active_rows:
            keep = self.dubois_keep_mask(block_map)
            if keep is None:
                self._active_rows[bits] = (None, 0)
                return self._active_rows[bits]
            dropped = int(len(keep) - keep.sum())
            if dropped == 0:
                rows = None  # nothing elided: reuse the shared full rows
            else:
                rows = (self.data.proc[keep].tolist(),
                        self.data.op[keep].tolist(),
                        self.data.addr[keep].tolist(),
                        self.data.block_ids(bits)[keep].tolist())
            self._active_rows[bits] = (rows, dropped)
        return self._active_rows[bits]

    # ------------------------------------------------------------------
    # shard plans (the intra-cell parallelism level)
    # ------------------------------------------------------------------
    def shard_plan(self, block_map: BlockMap, num_shards: int,
                   dim: PartitionDim = BY_BLOCK) -> ShardPlan:
        """Balanced partition for one (block size, dimension), cached.

        Plans are built in the parent before workers fork, so every shard
        worker of a cell inherits the same partition and resolves it by
        digest without recomputation or serialization.  Cells sharing a
        dimension share one plan per block size (protocol and classifier
        cells both partition ``by-block``).
        """
        key = (dim.name, block_map.offset_bits, num_shards)
        if key not in self._shard_plans:
            plan = plan_shards(self.data.block_ids(block_map.offset_bits),
                               block_map.offset_bits, num_shards, dim=dim)
            self._shard_plans[key] = plan
            self._plans_by_digest[plan.digest] = plan
        return self._shard_plans[key]

    def plan_by_digest(self, digest: str) -> ShardPlan:
        """Resolve a fork-inherited shard plan from a shard cell's digest."""
        try:
            return self._plans_by_digest[digest]
        except KeyError:
            raise ConfigError(
                f"no shard plan with digest {digest!r} in this precompute "
                f"(plans must be built before workers fork)") from None

    def per_processor_segments(self) -> List:
        """Index array of each processor's events (program order)."""
        if self._segments is None:
            self._segments = self.columns.per_processor_indices(
                self.trace.num_procs)
        return self._segments

    # ------------------------------------------------------------------
    # cell execution
    # ------------------------------------------------------------------
    def run_classifier(self, which: str, block_bytes: int
                       ) -> Union[DuboisBreakdown, SimpleBreakdown]:
        """Run one classifier cell over the shared decoded rows."""
        try:
            cls = CLASSIFIERS[which]
        except KeyError:
            raise ConfigError(
                f"unknown classifier {which!r}; known: "
                f"{sorted(CLASSIFIERS)}") from None
        block_map = BlockMap(block_bytes)
        if self.resolve_cell("classify", which) == "vectorized":
            # data_refs counts every data row either way: the kernel sees
            # the full batch, so nothing needs re-adding (the interpreted
            # path's elision re-adds its dropped rows for the same total).
            return CLASSIFIER_KERNELS[which](
                self.kernel_context(), block_map,
                stats=self.last_kernel_stats)
        clf = cls(self.trace.num_procs, block_map)
        if which == "dubois":
            rows, dropped = self.dubois_active_rows(block_map)
            if rows is not None:
                _feed_chunked(clf, *rows)
                # Elided no-op reads still count as data references.
                return dataclasses.replace(clf.finish(),
                                           data_refs=clf.data_refs + dropped)
        procs, ops, addrs = self.data_rows()
        blocks = self.data_blocks(block_map)
        if which == "eggers":
            _feed_chunked(clf, procs, ops, addrs, blocks,
                          self.data_offset_bits(block_map))
        else:
            _feed_chunked(clf, procs, ops, addrs, blocks)
        return clf.finish()

    def run_comparison(self, block_bytes: int) -> ClassificationComparison:
        """Run all three classifiers (one Table 1 column) in one cell."""
        return ClassificationComparison(
            trace_name=self.trace.name or "<anonymous>",
            block_bytes=block_bytes,
            ours=self.run_classifier("dubois", block_bytes),
            eggers=self.run_classifier("eggers", block_bytes),
            torrellas=self.run_classifier("torrellas", block_bytes),
        )

    def run_protocol(self, name: str, block_bytes: int) -> ProtocolResult:
        """Run one protocol cell over the shared trace.

        A kernelled protocol runs through
        :func:`~repro.kernels.run_protocol_kernel`, whose batch contexts
        (with their block-size-independent word tables) are kept here and
        shared by every protocol cell and block size of the trace; the
        others run their simulator over the trace.
        """
        if self.resolve_cell("protocol", name) == "vectorized":
            return run_protocol_kernel(
                name, self.columns, self.trace.num_procs,
                BlockMap(block_bytes),
                trace_name=self.trace.name or "<anonymous>",
                contexts=self._protocol_ctxs, stats=self.last_kernel_stats)
        protocol = make_protocol(name, self.trace.num_procs,
                                 BlockMap(block_bytes))
        return protocol.run(self.trace)

    def run_finite(self, spec: str, block_bytes: int) -> ProtocolResult:
        """Run one finite-cache cell (``finite_spec`` geometry) serially,
        through :func:`~repro.kernels.run_finite_kernel` when it resolves
        vectorized."""
        capacity, ways = parse_finite_spec(spec)
        if self.resolve_cell("finite", spec) == "vectorized":
            return run_finite_kernel(
                self.columns, self.trace.num_procs, BlockMap(block_bytes),
                capacity, ways, trace_name=self.trace.name or "<anonymous>",
                stats=self.last_kernel_stats)
        protocol = FiniteOTFProtocol(self.trace.num_procs,
                                     BlockMap(block_bytes), capacity,
                                     ways=ways)
        return protocol.run(self.trace)

    def _shard_select(self, digest: str, shard: int,
                      block_map: BlockMap) -> np.ndarray:
        """Mask over the trace's rows picking one shard's data rows."""
        blocks = self.data.block_ids(block_map.offset_bits)
        select = self.columns.data_mask()
        select[select] = self.plan_by_digest(digest).shard_of_rows(
            blocks) == shard
        return select

    def run_protocol_shard(self, name: str, block_bytes: int,
                           digest: str, shard: int) -> ProtocolResult:
        """Run one protocol over one block shard (a partial result).

        The vectorized path feeds the shard's data rows, with the whole
        trace's acquire table, through the same batched kernel runner the
        full cell uses, so shard partials merge bit-identically to both
        the interpreted shards (which replicate every sync row) and the
        unsharded cell.
        """
        if self.resolve_cell("protocol", name) == "vectorized":
            block_map = BlockMap(block_bytes)
            return run_protocol_kernel(
                name, self.columns, self.trace.num_procs, block_map,
                trace_name=self.trace.name or "<anonymous>",
                select=self._shard_select(digest, shard, block_map),
                stats=self.last_kernel_stats)
        return run_protocol_shard(name, self.trace, block_bytes,
                                  self.plan_by_digest(digest), shard)

    def run_finite_shard(self, spec: str, block_bytes: int,
                         digest: str, shard: int) -> ProtocolResult:
        """Run the finite cache over one ``by-cache-set`` shard (partial).

        The vectorized path feeds the shard's data rows through the same
        batched kernel runner the full cell uses, like
        :meth:`run_protocol_shard`.
        """
        capacity, ways = parse_finite_spec(spec)
        if self.resolve_cell("finite", spec) == "vectorized":
            block_map = BlockMap(block_bytes)
            return run_finite_kernel(
                self.columns, self.trace.num_procs, block_map, capacity,
                ways, trace_name=self.trace.name or "<anonymous>",
                select=self._shard_select(digest, shard, block_map),
                stats=self.last_kernel_stats)
        return run_finite_shard(self.trace, block_bytes, capacity,
                                self.plan_by_digest(digest), shard,
                                ways=ways)

    def run_classifier_shard(self, which: str, block_bytes: int,
                             digest: str, shard: int
                             ) -> Union[DuboisBreakdown, SimpleBreakdown]:
        """Run one classifier over one block shard (a partial result).

        All three classifiers ignore synchronization events, so the shard
        feed is exactly the shard's data rows (no sync replication).  The
        Dubois feed additionally composes with the no-op read elision
        mask; the shard's own elided rows are re-added to ``data_refs`` so
        partials sum to the full count.
        """
        if which not in CLASSIFIERS:
            raise ConfigError(
                f"classifier {which!r} is not block-shardable")
        block_map = BlockMap(block_bytes)
        plan = self.plan_by_digest(digest)
        blocks = self.data.block_ids(block_map.offset_bits)
        sel = plan.shard_of_rows(blocks) == shard
        if self.resolve_cell("classify", which) == "vectorized":
            ctx = self._shard_kernel_context(digest, shard, sel)
            return CLASSIFIER_KERNELS[which](
                ctx, block_map, stats=self.last_kernel_stats)
        clf = CLASSIFIERS[which](self.trace.num_procs, block_map)
        if which == "dubois":
            dropped = 0
            keep = self.dubois_keep_mask(block_map)
            if keep is not None:
                dropped = int((sel & ~keep).sum())
                sel &= keep
            _feed_chunked(clf, self.data.proc[sel].tolist(),
                          self.data.op[sel].tolist(),
                          self.data.addr[sel].tolist(),
                          blocks[sel].tolist())
            return dataclasses.replace(clf.finish(),
                                       data_refs=clf.data_refs + dropped)
        procs = self.data.proc[sel].tolist()
        ops = self.data.op[sel].tolist()
        addrs = self.data.addr[sel].tolist()
        blks = blocks[sel].tolist()
        if which == "eggers":
            offsets = self.data.word_offsets(
                block_map.words_per_block)[sel].tolist()
            _feed_chunked(clf, procs, ops, addrs, blks,
                          [1 << o for o in offsets])
        else:
            _feed_chunked(clf, procs, ops, addrs, blks)
        return clf.finish()

    def run_comparison_shard(self, block_bytes: int, digest: str,
                             shard: int) -> ClassificationComparison:
        """Run all three classifiers over one block shard (partial).

        Mirrors :meth:`run_comparison` per shard — one shared shard
        selection, three state machines — so per-shard comparisons merge
        (``+``) to the serial cell bit-identically.
        """
        return ClassificationComparison(
            trace_name=self.trace.name or "<anonymous>",
            block_bytes=block_bytes,
            ours=self.run_classifier_shard("dubois", block_bytes,
                                           digest, shard),
            eggers=self.run_classifier_shard("eggers", block_bytes,
                                             digest, shard),
            torrellas=self.run_classifier_shard("torrellas", block_bytes,
                                                digest, shard),
        )

    def run_cell(self, cell: Cell):
        """Dispatch one cell (or shard subtask), timed as a telemetry span.

        This is the single instrumentation point of cell execution: the
        supervisor's workers, the serial path and the degraded fallback
        all funnel through here, so every attempt — wherever it ran —
        leaves a ``cell.run``/``shard.run`` span (``status="error"`` when
        it raised) plus row-count and throughput metrics.  With telemetry
        off the wrapper is a single attribute check.
        """
        rec = get_recorder()
        stats = self.last_kernel_stats = {}
        if not rec.active:
            return self._dispatch_cell(cell)
        kind = cell[0]
        name = "shard.run" if kind.endswith("-shard") else "cell.run"
        base = kind[:-len("-shard")] if kind.endswith("-shard") else kind
        try:
            kernel = self.resolve_cell(base, cell[2])
        except ConfigError:  # malformed cell: the dispatch will raise too
            kernel = None
        try:
            dim = partition_dim_for(cell)
        except ConfigError:  # malformed spec: the dispatch will raise too
            dim = None
        dim_name = dim.name if dim is not None else None
        rows = len(self.data.proc)
        if name == "shard.run":
            try:
                rows = -(-rows // self.plan_by_digest(cell[3]).num_shards)
            except ConfigError:  # unknown plan: keep the full-trace count
                pass
        wall = time.time()
        t0 = time.monotonic()
        try:
            result = self._dispatch_cell(cell)
        except BaseException:
            rec.span_complete(name, time.monotonic() - t0, status="error",
                              t=wall, cell=list(cell), rows=rows,
                              partition_dim=dim_name, kernel=kernel)
            raise
        dur = time.monotonic() - t0
        rec.span_complete(name, dur, t=wall, cell=list(cell), rows=rows,
                          partition_dim=dim_name, kernel=kernel)
        rec.metric("cell.rows", rows, cell=list(cell))
        if dur > 0:
            rec.metric("cell.events_per_sec", round(rows / dur, 1),
                       unit="events/s", cell=list(cell))
        if stats.get("batches"):
            rec.metric("kernel.batch", stats["batches"],
                       cell=list(cell), rows=stats["rows"],
                       events_per_batch=round(stats["rows"]
                                              / stats["batches"], 1))
        return result

    def _dispatch_cell(self, cell: Cell):
        kind, block_bytes, which = cell[:3]
        if kind == "classify":
            return self.run_classifier(which, block_bytes)
        if kind == "compare":
            return self.run_comparison(block_bytes)
        if kind == "protocol":
            return self.run_protocol(which, block_bytes)
        if kind == "finite":
            return self.run_finite(which, block_bytes)
        if kind == "protocol-shard":
            return self.run_protocol_shard(which, block_bytes,
                                           cell[3], cell[4])
        if kind == "classify-shard":
            return self.run_classifier_shard(which, block_bytes,
                                             cell[3], cell[4])
        if kind == "compare-shard":
            return self.run_comparison_shard(block_bytes, cell[3], cell[4])
        if kind == "finite-shard":
            return self.run_finite_shard(which, block_bytes,
                                         cell[3], cell[4])
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
    #: Block shards per shardable cell (``None``/``0``: automatic — split
    #: spare workers when the grid has fewer cells than jobs; ``1``:
    #: disable intra-cell sharding).
    shards: Optional[int] = None
    #: Memory budget in bytes for the whole sweep (``--memory-budget``);
    #: ``None`` falls back to ``$REPRO_MEMORY_BUDGET``, else ungoverned.
    memory_budget: Optional[int] = None
    #: Record run telemetry (spans, metrics, manifest) under this
    #: directory (``--telemetry``); ``None`` disables recording.
    telemetry_dir: Optional[str] = None
    #: Execution-path selection (``--kernel``): ``auto`` runs vectorized
    #: kernels where available, ``vectorized`` requires NumPy,
    #: ``interpreted`` forces the streaming oracles everywhere.
    kernel: str = "auto"

    def engine_kwargs(self) -> dict:
        return {"retry": self.retry, "timeout": self.timeout,
                "checkpoint_dir": self.checkpoint_dir,
                "strict_invariants": self.strict_invariants,
                "fault_plan": self.fault_plan,
                "shards": self.shards,
                "memory_budget": self.memory_budget,
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
        Intra-cell shards per shardable cell (protocol, classify, compare
        and multi-set finite cells, each along its partition dimension —
        see :func:`partition_dim_for`).  ``None`` or ``0`` (default) is
        automatic:
        the two-level scheduler keeps plain grid fan-out while there are
        at least as many cells as jobs, and splits the spare workers into
        ``ceil(jobs / cells)`` shards per cell when the grid is smaller
        than the machine.  ``1`` disables sharding; an explicit ``P >= 2``
        forces ``P`` shards per shardable cell regardless of grid size.
        Sharded cells merge to results bit-identical to unsharded runs.
    memory_budget:
        Total memory budget for the sweep in bytes (``--memory-budget``).
        ``None`` falls back to ``$REPRO_MEMORY_BUDGET``; when neither is
        set the sweep is ungoverned.  With a budget, preflight admission
        (:func:`repro.runtime.resources.plan_admission`) clamps worker
        concurrency (and may raise the shard count) so the estimated
        footprints fit, and every worker soft-caps its address space at
        its fair share via ``RLIMIT_AS``.  An over-budget worker raises a
        clean ``MemoryError`` that — like a kernel SIGKILL — moves the
        sweep down the OOM ladder of :mod:`repro.runtime.policy` (halve
        workers, raise shards, then serial in-process) instead of
        crash-looping; every rung
        reuses the completed cells, so the final results are
        bit-identical to an unconstrained run.
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
                 memory_budget: Optional[int] = None,
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
        self.shards = shards or None  # 0 normalizes to automatic
        self.memory_budget = resolve_memory_budget(memory_budget)
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
                arr = np.ascontiguousarray(arr)
                h.update(str(len(arr)).encode())
                h.update(arr.tobytes())
            name = re.sub(r"[^A-Za-z0-9_-]+", "_",
                          self.trace.name or "trace")
            self._trace_key = f"{name}-{h.hexdigest()[:16]}"
        return self._trace_key

    # ------------------------------------------------------------------
    # grid execution (two-level scheduler)
    # ------------------------------------------------------------------
    def _shards_per_cell(self, pending_cells: int,
                         jobs: Optional[int] = None,
                         shards_setting: Optional[int] = None) -> int:
        """Shard count for this grid (level two of the scheduler).

        An explicit shard setting always wins.  In automatic mode the
        grid keeps plain cell fan-out while it has at least as many cells
        as workers; only when the grid is smaller than the machine are the
        spare workers split into shards per cell.  ``jobs`` and
        ``shards_setting`` override the engine's configuration — the
        degradation ladder re-plans with them rung by rung.
        """
        jobs = self.jobs if jobs is None else jobs
        shards = self.shards if shards_setting is None else shards_setting
        if shards is not None:
            return shards
        if jobs <= 1 or pending_cells == 0 or pending_cells >= jobs:
            return 1
        return -(-jobs // pending_cells)  # ceil

    @staticmethod
    def _shardable(cell: Cell) -> bool:
        """True for cells legal along some partition dimension.

        Protocol, classify and compare cells shard ``by-block``; finite
        cells shard ``by-cache-set`` when their geometry has more than one
        set (a fully-associative cache is one unit and cannot split).
        """
        kind, _, which = cell[:3]
        if kind == "protocol":
            return which in SHARDABLE_PROTOCOLS
        if kind == "classify":
            return which in CLASSIFIERS
        if kind == "compare":
            return True
        if kind == "finite":
            try:
                capacity, ways = parse_finite_spec(which)
            except ConfigError:
                return False
            return cache_geometry(capacity, ways)[0] > 1
        return False

    def _merge_cell(self, cell: Cell, parts: List):
        """Merge one cell's per-shard partials into its full result."""
        if cell[0] in ("protocol", "finite"):
            return merge_shard_results(parts)
        merged = parts[0]
        for part in parts[1:]:
            merged = merged + part
        return merged

    def run_grid(self, cells: Sequence[Cell]) -> List:
        """Run every cell, returning results in cell order.

        Execution is supervised: worker crashes and per-cell hangs are
        retried per the engine's :class:`RetryPolicy`; completed cells are
        journaled when ``checkpoint_dir`` is set (and cells already in the
        journal are returned without recomputation); each fresh result
        passes the post-cell invariant guard before being accepted.

        When the grid has spare workers (or ``shards`` is set), shardable
        cells are expanded into per-block-shard subtasks that run on the
        same supervised pool and merge back into bit-identical results.
        Per-shard partials are journaled under plan-digest-qualified keys,
        so a resumed sweep re-runs only incomplete shards and can never
        mix partials from two different shard plans; the merged cell is
        then journaled under its plain key, exactly like an unsharded run.

        Execution is additionally *resource-governed*: an OOM-class
        failure (a worker ``MemoryError`` under its ``RLIMIT_AS`` cap, or
        a SIGKILL/137 death) does not blind-retry the same configuration —
        it moves the sweep down the OOM ladder
        (:class:`repro.runtime.policy.OomLadder`): halve worker
        concurrency, then raise the shard count (smaller per-worker
        footprint over the bit-identical merge path), then run serial
        in-process.  Every rung resumes from the cells and shard partials
        already completed, so a degraded sweep returns the same results an
        unconstrained one would.

        With ``telemetry_dir`` set (and no run already being recorded),
        the whole grid is recorded as one :class:`~repro.obs.RunTelemetry`
        run: sweep/rung lifecycle events, per-cell spans, resume and
        ladder events, and a ``manifest.json`` folded from the stream.
        """
        if self.telemetry_dir is not None and current_run() is None:
            with RunTelemetry(self.telemetry_dir, progress=self.progress,
                              config=self._telemetry_config()):
                return self._run_grid(cells)
        return self._run_grid(cells)

    def _telemetry_config(self) -> dict:
        return {"trace": self.trace.name, "jobs": self.jobs,
                "shards": self.shards, "timeout": self.timeout,
                "memory_budget": self.memory_budget,
                "checkpoint_dir": self.checkpoint_dir,
                "kernel": self.kernel}

    def _run_grid(self, cells: Sequence[Cell]) -> List:
        cells = [tuple(cell) for cell in cells]
        rec = get_recorder()
        # The sweep root span: every cell/shard/merge span of this grid —
        # including ones emitted in forked workers, whose parent ids
        # ride the assign messages — hangs off it, giving
        # `repro trace` one rooted tree per sweep.
        with rec.span("sweep.run", trace=self.trace.name,
                      trace_key=self.trace_key, cells=len(cells)):
            return self._run_grid_rungs(cells, rec)

    def _run_grid_rungs(self, cells: List[Tuple], rec) -> List:
        journal = None
        completed: Dict[Tuple, object] = {}
        if self.checkpoint_dir is not None:
            journal = CheckpointJournal(self.checkpoint_dir or None,
                                        self.trace_key,
                                        kernel=self.kernel)
            completed = journal.load()
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
        try:
            ladder = OomLadder(self.jobs, self.shards)
            while True:
                # A shutdown requested between rungs (or salvaged out of
                # the previous rung's drain) must not start a new rung.
                signals.check_interrupt()
                try:
                    results = self._run_grid_once(cells, completed, journal,
                                                  ladder)
                except ResourceExhaustedError as exc:
                    ladder.step(exc)  # re-raises once the ladder is spent
                    completed.update(exc.partial)
                    continue
                if journal is not None:
                    # The grid is complete: fold duplicate records and
                    # absorbed shard partials so the next resume replays
                    # a minimal journal.
                    journal.compact()
                rec.event("sweep.finish", trace_key=self.trace_key,
                          cells=len(cells), rung=ladder.label)
                run = current_run()
                if run is not None:
                    for cell, result in zip(cells, results):
                        run.cell_result(
                            self.trace_key, cell, result,
                            source="journal" if cell in resumed
                            else "computed")
                return results
        finally:
            if journal is not None:
                journal.close()

    def _run_grid_once(self, cells: List[Tuple], completed: Dict[Tuple, object],
                       journal: Optional[CheckpointJournal],
                       ladder: OomLadder) -> List:
        """One ladder rung: plan, admit, fan out, merge.

        Runs at the ladder's current ``jobs``/``shards``.  ``completed``
        carries journaled results *and* the partials salvaged from earlier
        rungs (keyed by task — plain cells and plan-digest-qualified shard
        subtasks), so each rung re-runs only what no earlier attempt
        finished.  Raises :class:`~repro.errors.ResourceExhaustedError` on
        an OOM-class failure while the ladder has a step left — its
        signal to re-plan.
        """
        pre = self.precompute
        pending = [c for c in cells if c not in completed]
        jobs, shards_setting, worker_cap = self._admit(
            ladder.jobs, ladder.shards, pending)
        shards = self._shards_per_cell(len(set(pending)), jobs,
                                       shards_setting)
        tasks: List[Tuple] = []
        groups: Dict[Tuple, List[Tuple]] = {}
        for cell in cells:
            if cell in completed or cell in groups:
                continue
            plan = None
            if shards > 1 and self._shardable(cell):
                plan = pre.shard_plan(BlockMap(cell[1]), shards,
                                      dim=partition_dim_for(cell))
            if plan is not None and plan.num_shards > 1:
                kind, bb, which = cell[:3]
                groups[cell] = [(f"{kind}-shard", bb, which, plan.digest, s)
                                for s in range(plan.num_shards)]
                tasks.extend(groups[cell])
            else:
                tasks.append(cell)
        jobs = min(jobs, len(tasks)) if tasks else 1

        rec = get_recorder()
        if rec.active:
            rec.event("rung.start", tasks=len(tasks), jobs=jobs,
                      shards=shards)
            logger.info("rung start: %d task(s), jobs=%d, shards=%d",
                        len(tasks), jobs, shards)
            for cell in dict.fromkeys(c for c in cells
                                      if c not in completed):
                per_cell_shards = len(groups.get(cell, ())) or 1
                rec.metric(
                    "footprint.predicted_bytes",
                    estimate_cell_bytes(self.trace,
                                        shards=per_cell_shards),
                    unit="bytes", cell=list(cell))

        def on_result(task, result):
            self._guard_cell(task, result)
            if journal is not None:
                journal.record(task, result)

        if jobs > 1:
            # Warm the shared state in the parent so every forked worker
            # inherits it instead of re-deriving it per process: decoded
            # rows and Dubois keep masks for interpreted classify/compare
            # tasks (O(n log n) per block size that every shard would
            # otherwise redo), the kernel context's block-size-independent
            # word tables for vectorized whole classifier cells.
            # Vectorized shard subtasks build ephemeral per-shard contexts
            # and cannot share the parent's; protocol cells build their
            # batch contexts in the worker that first runs one.
            warm_rows = warm_kernel = False
            for task in tasks:
                base = task[0]
                shard_task = base.endswith("-shard")
                if shard_task:
                    base = base[:-len("-shard")]
                vectorized = (base in ("classify", "compare", "protocol")
                              and pre.resolve_cell(base, task[2])
                              == "vectorized")
                if vectorized:
                    warm_kernel = warm_kernel or not (shard_task
                                                      or base == "protocol")
                    continue
                if base in ("classify", "compare"):
                    warm_rows = True
                if base == "compare" or (base == "classify"
                                         and task[2] == "dubois"):
                    pre.dubois_keep_mask(BlockMap(task[1]))
            if warm_rows:
                pre.data_rows()
            if warm_kernel:
                ctx = pre.kernel_context()
                ctx.word_last_rows()
                ctx.word_remote_rows()
        supervisor = Supervisor(pre.run_cell, jobs=jobs, retry=self.retry,
                                timeout=self.timeout,
                                fault_plan=self.fault_plan,
                                worker_rlimit_bytes=worker_cap)
        by_task = dict(zip(tasks, supervisor.run(
            tasks, completed=completed or None, on_result=on_result,
            ladder=ladder)))
        results = []
        for cell in cells:
            if cell in completed:
                results.append(completed[cell])
            elif cell in groups:
                with rec.span("merge", cell=list(cell),
                              shards=len(groups[cell])):
                    merged = self._merge_cell(
                        cell, [by_task[sc] for sc in groups[cell]])
                self._guard_cell(cell, merged)
                if journal is not None:
                    journal.record(cell, merged)
                run = current_run()
                if run is not None:
                    # A sharded cell never ran as one task; synthesize
                    # its cell.run span from the folded shard durations
                    # so the merged timeline keeps exactly one ok
                    # cell.run span per grid cell.
                    run.merged_cell(self.trace_key, cell,
                                    len(groups[cell]))
                results.append(merged)
                completed[cell] = merged  # duplicate cells in the grid
            else:
                results.append(by_task[cell])
        return results

    def _admit(self, jobs: int, shards_setting: Optional[int],
               pending: List[Tuple]):
        """Preflight admission of one rung under the memory budget.

        Returns the admitted ``(jobs, shards_setting, worker_cap_bytes)``.
        Without a budget (or for a serial rung) everything passes through
        unchanged and uncapped.
        """
        if self.memory_budget is None or jobs <= 1 or not pending:
            return jobs, shards_setting, None
        adm = plan_admission(
            self.memory_budget, jobs, shards_setting or 1,
            lambda s: estimate_cell_bytes(self.trace, shards=s),
            shardable=any(self._shardable(c) for c in pending))
        if adm.over_budget:
            warn_resource(
                f"estimated footprint of one serial worker exceeds the "
                f"memory budget ({format_size(self.memory_budget)}); "
                f"running serial and uncapped")
            return 1, shards_setting, None
        if adm.jobs < jobs or adm.shards > (shards_setting or 1):
            warn_resource(
                f"admission under {format_size(self.memory_budget)} "
                f"budget: {adm.describe()} (requested jobs={jobs})")
        if adm.shards > (shards_setting or 1):
            shards_setting = adm.shards
        return adm.jobs, shards_setting, adm.worker_cap_bytes

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
