"""Vectorized protocol kernels.

All seven infinite-cache protocols have a kernel: OTF, MIN, WBWI, RD,
SD, SRD and MAX.  Processor q's copy of block b changes only on q's own
accesses and acquires and on stores to b by other processors, at the
time each store is *performed*: at issue under OTF, MIN, WBWI, RD and
MAX (whose invalidations land at times bounded by their writers'
releases), at issue or at the writer's next release under SD and SRD.
Every (block, processor) stream is independent, and each kernel reduces
its protocol to a miss set and the shared lifetime classification of
:meth:`_BlockView.classify`.

Misses.  OTF misses iff a store to the block intervened since the
group's previous access (:meth:`_BlockView.miss_sorted`).  Under MIN,
WBWI and RD a row i misses iff it opens its (block, processor) group or
its value ``r_i`` postdates the group's previous *miss* (the copy's
fetch) — a chain solved by :func:`~repro.kernels.segments.essential_chain`:

* **MIN** — ``r_i`` is the newest store to i's word by another processor
  (``word_remote_rows``): a copy is word-invalidated exactly when such a
  store lands after its fetch, and only an access to that word misses;
* **WBWI** — the MIN value, or, for a store whose previous store to the
  block was not q's (q does not own the block), the newest
  other-processor store to the block, whichever is larger: that is the
  ownership rule (a non-owner store misses on *any* pending word
  invalidation);
* **RD** — the newest other-processor store to the block before q's
  latest acquire (acquires apply the buffered block invalidation), or,
  for a store, the newest other-processor store to the block (a store
  needs a current copy), whichever is larger.

MAX's misses are the adversary's schedule (:mod:`repro.protocols.maxsched`),
reformulated per (block, processor q) group.  A store s has a *deadline*
D(s): the batch position of its writer's first release after it, or
``n`` if none — the lookup SD and SRD flush by
(:func:`_flush_keys`), made in trace rows, so comparisons
with batch rows are exact.  For q's consecutive accesses a < a', the
tokens q can use at a' are exactly the unspent remote stores s < a'
with D(s) > a (any with an earlier deadline would have been forced at
a).  At a' q misses iff one is left; if some have D <= a' they are all
spent (``invalidations_sent += count``), else one with the
smallest deadline is.  The stores to b between a and a' — and, for the
group's first gap, those before q's first access with D past it — are
cut from :meth:`_BlockView.block_runs` into pieces of one (writer,
deadline).  A gap can miss only if a piece arrives in it or an earlier
piece of the group has a deadline past a (a segmented running max); a
gap whose only pieces expire by a' misses and burns them without
touching the rest.  Over the other, *contested* gaps the rule is
earliest-deadline-first: each access spends one pending token, and
every token that is due is spent at once.  So q misses exactly where a
token is pending or due, and ``invalidations_sent`` is the tokens
released less those still pending after the group's last access.  The
pending count is a queue whose service at an access is ``max(u, 1)``
for the ``u`` tokens due there — a cumulative sum less its running
minimum (:func:`_lindley`).  Bounds fix that service at most gaps
(:func:`_max_pending`); only the busy stretches that hold a *hard* gap,
where they do not, are walked earliest-deadline-first with a heap of
expiries (:func:`_due_in_order`), up to their last hard gap.

SD and SRD first resolve when each store is performed
(:class:`_Performs`), once per batch and block size: the first of the
two cells builds the resolution, caches it on the block view, and the
other reads it until the view is dropped.  A block's owner changes only
at a flush, so a store by q is performed at issue iff the block's latest
flush before it was q's, and is otherwise buffered until q's next
release (or the end of the trace).  Grouping the stores by (block,
writer, the writer's next release) gives *candidate flushes*; taken per
block in release order, a candidate's stores are immediate iff the
latest flush before its first store was its writer's, up to the block's
next flush (another writer's), and buffered after; it flushes iff one
is buffered.  Every flush that decides a candidate precedes the
candidate's own release, so one loop over the candidates decides them
all.  Times are trace rows, which order rows, acquires and releases
exactly (flushes sit between batch rows, and several processors'
acquires and releases may sit between the same two).  Then:

* **SD** — OTF's rule over performs: a row misses iff it opens its group
  or another writer performed to the block since the group's previous
  access (a writer's own flush never drops its copy);
* **SRD** — RD's chain over performs: the newest other-writer perform
  to the block before q's latest acquire, or, for a store, before the
  row, whichever is larger.

Counters: ``stores_buffered`` is the buffered stores, ``stores_combined``
those less the flushes, ``ownership_transfers`` the flushes less the
blocks that have one.

Lifetimes.  Each miss opens a lifetime that lasts until the group's next
miss; lifetimes classify exactly as in the tracker's fetch-snapshot
semantics (:mod:`repro.protocols.lifetime`) once each access is paired
with the newest remote store to its word *as of the lifetime's fetch*.
Under OTF, MIN and WBWI no remote store to an accessed word can land
inside a lifetime (it would have invalidated the copy or the word), so
that is ``word_remote_rows`` itself; RD and MAX read stale copies, so
their accesses past a remote store look the word up as of the fetch
(:func:`_newest_as_of_fetch`).  SD and SRD read the newest *perform*
to the word before the fetch instead, and none when the accessing
processor made it; their lifetime is dirty iff a perform to the block
precedes its fetch.

Counters follow in closed form from the miss set and the store and
acquire tables:

* ``fetches`` — one per lifetime; ``invalidations_applied`` — every
  lifetime but the ones alive at the end of the batch (MIN, WBWI and MAX
  never drop a copy without refetching it at once, so only each group's
  first lifetime is not preceded by a drop; under OTF and RD a group's
  last lifetime is dropped iff a remote store, resp. an acquire after
  one, follows its fetch; under SD and SRD, likewise with performs, the
  end-of-trace flushes included);
* ``invalidations_sent`` (OTF, RD) and ``word_invalidations`` (MIN,
  WBWI) — one per store per *other* processor holding a copy, i.e. the
  sum over lifetimes of the stores to the block while the lifetime is
  alive, less one per store for the writer's own; under SD it equals
  ``invalidations_applied``, under SRD it is the sum over lifetimes of
  the other writers' performs while the lifetime is alive; under MAX,
  ``invalidations_sent`` is the tokens spent;
* ``write_throughs`` (MIN) — one per store; ``ownership_transfers``
  (WBWI) — one per store whose block's previous store was by another
  processor; ``ownership_misses`` (WBWI, RD) — the non-cold misses at a
  store that the load rule alone would not have taken.

Batches.  :func:`run_kernel_cells` is the one runner of every protocol,
classify, compare and finite-cache cell.  It runs one range of a
:class:`BatchPlan` (:func:`plan_batches`): batches of whole blocks of
the cells' largest block size, or of whole cache sets of the finite
cells' one geometry, at most :data:`BATCH_ROWS` data rows each.  It builds each
batch's context once, runs every cell's kernel on it and drops it, then
merges each cell's parts.  A cell's kernel memory is thus bounded by
the batch, not by the trace, and the parts sum exactly because every
state machine is per (block, processor) and every comparison is
order-only; so do the parts of the plan's ranges.

The sync rows are the one exception to "per batch": a pass sorts the
trace's acquires and releases once, per (processor, kind), into a
:class:`~repro.kernels.classifiers.SyncTable` every batch context
shares.  A batch asks it in trace rows — its processor's latest acquire
before a row, a writer's first release after a store — so the only
sync rows a batch ever handles are the answers to its own questions,
and no batch remaps or sorts a table.  A sync row's batch position is
``searchsorted(rows, trace_row)``, monotone in the trace row.  What two
schedules share is looked up once per block view: each row's latest
acquire (RD, SRD), each store's first release after it (MAX's deadline,
the SD/SRD flush) and the perform resolution (SD, SRD).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import hashlib
import heapq
import operator
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..classify.compare import ClassificationComparison
from ..errors import ConfigError
from ..mem.addresses import BlockMap
from ..protocols.finite import cache_geometry, parse_finite_spec
from ..protocols.results import Counters, ProtocolResult, merge_shard_results
from ..runtime import signals
from ..trace.events import ACQUIRE, RELEASE
from .classifiers import (KernelContext, SyncTable, _Heartbeat,
                          lifetime_breakdown)
from .finite import finite_kernel
from .segments import (essential_chain, event_runs, next_run,
                       pack_order, remote_store_before)

__all__ = ["BATCH_ROWS", "BatchPlan", "plan_batches", "run_kernel_cells",
           "merge_parts",
           "otf_kernel", "min_kernel", "wbwi_kernel", "rd_kernel",
           "max_kernel", "sd_kernel", "srd_kernel"]

#: Data rows per kernel batch.  A batch is a set of whole units — blocks,
#: or cache sets for the finite kernel; a single unit with more rows
#: than this is a batch of its own.
BATCH_ROWS = 1 << 14


# ----------------------------------------------------------------------
# the batched entry point
# ----------------------------------------------------------------------
#: Rows per slice when the planner fills or scans its packed keys, so
#: no temporary is trace-sized.
_SCAN_ROWS = 1 << 16


@dataclasses.dataclass(frozen=True, eq=False)
class BatchPlan:
    """Batches of whole units over a trace's data rows, cut into ranges.

    A unit is a block of ``2**unit_bits`` words or, with ``num_sets``, a
    cache set (``block % num_sets``).  Batch ``i`` is the rows
    ``order[ends[i]:ends[i + 1]]``; range ``s`` is batches
    ``cuts[s]`` to ``cuts[s + 1]``.  Every state machine a batch runs is
    per (block, processor), or per (processor, set), so any set of
    whole batches runs exactly and the parts of the ranges merge to the
    whole cell.  ``digest`` names the plan and its cut; shard results
    are journaled under it, so a resume never mixes two cuts.
    """

    unit_bits: int
    num_sets: int
    order: np.ndarray
    ends: np.ndarray
    cuts: Tuple[int, ...]
    digest: str

    @property
    def num_ranges(self) -> int:
        return len(self.cuts) - 1

    @property
    def shard_events(self) -> Tuple[int, ...]:
        """Data rows per range."""
        return tuple(int(self.ends[b] - self.ends[a])
                     for a, b in zip(self.cuts, self.cuts[1:]))

    @property
    def max_shard_events(self) -> int:
        """The heaviest range's data rows."""
        return max(self.shard_events)

    def batches(self, shard: int = 0):
        """Time-ordered row-index arrays of range ``shard``'s batches."""
        if not 0 <= shard < self.num_ranges:
            raise ConfigError(f"range {shard} out of range for a "
                              f"{self.num_ranges}-range plan")
        bounds = self.ends[self.cuts[shard]:self.cuts[shard + 1] + 1]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield np.sort(self.order[lo:hi]).astype(np.int64)


def plan_batches(columns, unit_bits: int, num_sets: int = 0,
                 ranges: int = 1) -> BatchPlan:
    """Plan batches of whole units over a trace's data rows and cut them
    into ``ranges`` contiguous ranges of balanced row counts (fewer when
    the plan has fewer batches; always at least one).

    Units are blocks of ``2**unit_bits`` words, or, with ``num_sets``,
    cache sets.  Deterministic: the same trace, unit and range count
    give the same plan and digest.
    """
    if ranges < 1:
        raise ConfigError(f"range count must be positive, got {ranges}")
    # int64: the planner packs its keys into the units in place.
    units = np.right_shift(columns.addr, unit_bits, dtype=np.int64)
    if num_sets:
        units %= num_sets
    order, ends = _plan_rows(units, columns.data_mask())
    count, nb = int(ends[-1]), len(ends) - 1
    cuts = [0]
    k = max(1, min(ranges, nb))
    for s in range(1, k):
        # The batch boundary nearest s/k of the rows, leaving at least
        # one batch to each range.
        target = count * s / k
        i = int(np.searchsorted(ends, target))
        if target - ends[i - 1] <= ends[i] - target:
            i -= 1
        cuts.append(min(max(i, cuts[-1] + 1), nb - (k - s)))
    cuts.append(nb)
    h = hashlib.sha1(f"{unit_bits}|{num_sets}|{count}|{cuts}|".encode())
    h.update(np.ascontiguousarray(ends).tobytes())
    return BatchPlan(unit_bits, num_sets, order, ends, tuple(cuts),
                     h.hexdigest()[:16])


def _plan_rows(units: np.ndarray, select: np.ndarray):
    """``(order, ends)``: the rows picked by ``select`` ordered by (unit,
    row), and the offsets into that order of the batch boundaries, from
    0 to the row count.

    ``units`` (int64) holds each row's unit id and is consumed: the
    planner packs its keys into it in place, ``unit << shift | row``,
    and sorts them.  The order is cut greedily at unit boundaries into
    batches of at most :data:`BATCH_ROWS` rows (a single larger unit is
    a batch of its own).  Only the order is kept — 4 bytes a row, the one
    trace-sized array of a plan.
    """
    n = len(units)
    count = int(np.count_nonzero(select))
    if not count:
        return np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64)
    shift = max((n - 1).bit_length(), 1)
    packed = units
    del units  # dropped with ``packed`` before the plan is returned
    packed[~select] = 0  # unselected rows (e.g. sync) carry no unit
    if int(packed.max()) >= 1 << (62 - shift):  # pragma: no cover - sparse
        packed = np.unique(packed, return_inverse=True)[1].reshape(-1)
    packed <<= shift
    for lo in range(0, n, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, n)
        packed[lo:hi] |= np.arange(lo, hi)
    packed[~select] = np.iinfo(np.int64).max  # sorts past every row
    del select
    packed.sort()
    order = np.empty(count, dtype=np.int32 if n < 1 << 31 else np.int64)
    row_mask = np.int64((1 << shift) - 1)
    # 0 is an end too, so a first unit larger than a batch is cut alone.
    unit_ends = [np.array([0, count])]
    for lo in range(0, count, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, count)
        order[lo:hi] = packed[lo:hi] & row_mask
        unit = packed[lo:hi + 1] >> shift
        unit_ends.append(np.flatnonzero(unit[1:] != unit[:-1]) + lo + 1)
    del packed
    unit_ends = np.unique(np.concatenate(unit_ends))  # overlaps repeat one
    ends = [0]
    while ends[-1] < count:
        start = ends[-1]
        stop = int(unit_ends[np.searchsorted(unit_ends, start + BATCH_ROWS,
                                             "right") - 1])
        if stop <= start:  # one unit larger than a batch
            stop = int(unit_ends[np.searchsorted(unit_ends, start,
                                                 "right")])
        ends.append(stop)
    return order, np.array(ends, dtype=np.int64)


def _batch_contexts(columns, num_procs: int, batches, sync: bool = True):
    """One :class:`KernelContext` per row-index array of ``batches``, in
    order.  With ``sync`` every context shares the trace's one
    :class:`SyncTable`, built here; the classifiers read none."""
    table = SyncTable.from_columns(columns, num_procs) if sync else None
    for rows in batches:
        yield KernelContext(columns.proc[rows], columns.op[rows],
                            columns.addr[rows], num_procs, rows, table)


def _cell_kernel(cell, trace_name: str):
    """``ctx -> part`` of one protocol, classify, compare or finite cell."""
    # Looked up per call: tests wrap the kernels.
    from . import CLASSIFIER_KERNELS, PROTOCOL_KERNELS

    kind, block_bytes, which = cell[:3]
    block_map = BlockMap(block_bytes)
    if kind == "finite":
        num_sets, ways = cache_geometry(*parse_finite_spec(which))
        return lambda ctx: finite_kernel(ctx, block_map, num_sets, ways,
                                         trace_name=trace_name)
    if kind == "protocol":
        kernel = PROTOCOL_KERNELS[which]
        return lambda ctx: kernel(ctx, block_map, trace_name=trace_name)
    if kind == "classify":
        kernel = CLASSIFIER_KERNELS[which]
        return lambda ctx: kernel(ctx, block_map)
    if kind == "compare":
        ours, eggers, torrellas = (CLASSIFIER_KERNELS[k] for k in
                                   ("dubois", "eggers", "torrellas"))
        return lambda ctx: ClassificationComparison(
            trace_name=trace_name, block_bytes=block_bytes,
            ours=ours(ctx, block_map), eggers=eggers(ctx, block_map),
            torrellas=torrellas(ctx, block_map))
    raise ConfigError(f"no kernel runs {kind!r} cells")


def run_kernel_cells(columns, num_procs: int, cells: Sequence, *,
                     trace_name: str, plan: Optional[BatchPlan] = None,
                     shard: int = 0,
                     stats: Optional[Sequence[Dict]] = None) -> List:
    """Run protocol, classify, compare or finite cells over one batch plan.

    ``cells`` are ``(kind, block_bytes, which)`` grid cells; the results
    come back in their order.  ``columns`` are a whole trace's columns,
    sync rows included.  The cells run over range ``shard`` of ``plan``,
    one of two kinds: by block, whose units are whole blocks of every
    cell (blocks at least as large as the largest cell's) and which no
    finite cell runs on; or by cache set, whose ``(unit_bits,
    num_sets)`` equal every cell's block and set count, all cells being
    finite.  The default is a one-range plan at the cells' largest
    block, or at the finite cells' geometry, so each result is
    bit-identical to the cell's streaming oracle; the parts of every
    range of one plan merge to that result.

    Batches run outside and cells inside, so every cell shares each
    batch's context (and its block-size-independent word tables), which
    is dropped before the next one is built; each block size's view of
    it is dropped after the last cell at that size.  Parts merge with
    :func:`merge_parts`.

    ``stats``, one dict per cell, accumulates each cell's ``batches``,
    their ``rows`` and its kernel ``seconds``.
    """
    cells = [tuple(cell[:3]) for cell in cells]
    if stats is None:
        stats = [{} for _ in cells]
    runs = [_cell_kernel(cell, trace_name) for cell in cells]
    # A block size's view of a batch is shared by the cells at that size
    # and dropped after the last of them, so one view is live at a time.
    last = {BlockMap(cell[1]).offset_bits: i for i, cell in enumerate(cells)}
    for bits, i in last.items():
        runs[i] = _dropping_view(runs[i], bits)
    units = [_cell_unit(cell) for cell in cells]
    if plan is None:
        plan = plan_batches(columns, *max(units))
    for cell, (bits, sets) in zip(cells, units):
        fits = ((plan.unit_bits, plan.num_sets) == (bits, sets) if sets
                else not plan.num_sets and plan.unit_bits >= bits)
        if not fits:
            by = f" by {plan.num_sets} cache sets" if plan.num_sets else ""
            need = f"{sets} cache sets of" if sets else "whole"
            raise ConfigError(
                f"a plan of {2 ** plan.unit_bits}-word units{by} does not "
                f"fit {cell!r}: it needs {need} {2 ** bits}-word blocks")
    contexts = _batch_contexts(
        columns, num_procs, plan.batches(shard),
        sync=any(cell[0] == "protocol" for cell in cells))
    parts = _run_batches(runs, contexts, num_procs, stats)
    return [merge_parts(cell, p) for cell, p in zip(cells, parts)]


def merge_parts(cell, parts: Sequence):
    """One cell's parts merged into its result: protocol and finite
    results with :func:`~repro.protocols.results.merge_shard_results`,
    breakdowns and comparisons with ``+``."""
    if cell[0] in ("protocol", "finite"):
        return merge_shard_results(parts)
    return functools.reduce(operator.add, parts)


def _cell_unit(cell) -> Tuple[int, int]:
    """``(unit_bits, num_sets)`` of the plan unit one cell needs: its
    block, and for a finite cell its cache's set count (else 0)."""
    bits = BlockMap(cell[1]).offset_bits
    if cell[0] != "finite":
        return bits, 0
    return bits, cache_geometry(*parse_finite_spec(cell[2]))[0]


def _dropping_view(run, offset_bits: int):
    """``run``, then drop the context's view at ``offset_bits``."""
    def call(ctx):
        try:
            return run(ctx)
        finally:
            ctx.drop_block_view(offset_bits)
    return call


def _run_batches(runs, contexts, num_procs: int,
                 stats: Sequence[Dict]) -> List[list]:
    """Per run, its parts ``run(ctx)`` over the batch ``contexts``:
    batches outside, runs inside, each context dropped once every run
    has used it; with no batch, each runs once on an empty context.
    ``stats[i]`` accumulates run ``i``'s ``batches``, their ``rows``
    and its ``seconds``."""
    parts = [[] for _ in runs]
    for st in stats:
        st.setdefault("batches", 0)
        st.setdefault("rows", 0)
        st.setdefault("seconds", 0.0)

    def run_all(ctx):
        for run, out, st in zip(runs, parts, stats):
            t0 = time.perf_counter()
            out.append(run(ctx))
            st["seconds"] += time.perf_counter() - t0

    for ctx in contexts:
        run_all(ctx)
        for st in stats:
            st["batches"] += 1
            st["rows"] += ctx.n
        del ctx  # not kept while the next batch is built
    if runs and not parts[0]:
        empty = np.empty(0, dtype=np.int64)
        run_all(KernelContext(empty, empty, empty, num_procs))
    return parts


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
def _result(name: str, ctx: KernelContext, block_map, trace_name: str,
            life, counters: Counters) -> ProtocolResult:
    _, _, cold, dirty, ess = life
    return ProtocolResult(
        protocol=name,
        trace_name=trace_name,
        block_bytes=block_map.block_bytes,
        num_procs=ctx.num_procs,
        breakdown=lifetime_breakdown(cold, dirty, ess, ctx.n),
        counters=counters,
        replacement_misses=0,
    )


def _chain_misses(view, value: np.ndarray, hb: _Heartbeat) -> np.ndarray:
    """Miss flags (group order): a row misses iff it opens its group or
    ``value`` (per row) postdates the group's previous miss."""
    order, newg, gid_sorted, _ = view.groups()
    hb.phase()
    r = value[order].astype(np.int64)
    r[newg] = np.maximum(r[newg], 0)
    return essential_chain(gid_sorted, r, order, hb)


def _prev_fetch(fetch: np.ndarray, cold: np.ndarray) -> np.ndarray:
    """The group's previous lifetime's fetch row (-1 for cold ones)."""
    prev = np.empty(len(fetch), dtype=np.int64)
    if len(fetch):
        prev[0] = -1
        prev[1:] = fetch[:-1]
    prev[cold] = -1
    return prev


def _newest_as_of_fetch(view, miss: np.ndarray) -> np.ndarray:
    """Per row, in group order: the newest store to its word by another
    processor as of its lifetime's fetch — the essential test of a
    schedule whose copies go stale (RD, MAX), where a remote store can
    land inside a lifetime without ending it."""
    ctx = view.ctx
    n = ctx.n
    order = view.groups()[0]
    at = np.where(miss, np.arange(n), 0)
    fetch_of = order[np.maximum.accumulate(at)] if n else at
    newest = ctx.word_remote_rows()[order].astype(np.int64)
    stale = np.flatnonzero(newest > fetch_of)
    if len(stale):
        wruns, wkeys = ctx.word_runs()
        srow = order[stale]
        newest[stale] = remote_store_before(
            wruns, wkeys, n + 1, ctx.wid[srow], ctx.proc[srow],
            fetch_of[stale])
    return newest


def _held_copy_invalidations(view) -> int:
    """MIN/WBWI word invalidations: per store, the other processors that
    accessed the block before it — a copy, once fetched, is only ever
    dropped to be refetched at once.  Summed per group-first row as the
    stores to the block at or after it, less the writer's own copy."""
    ctx = view.ctx
    order, newg, _, _ = view.groups()
    first = order[newg]
    srows = ctx.store_rows()
    end = np.cumsum(np.bincount(view.bid[srows], minlength=view.num_blocks))
    counts = view.store_counts()
    total = int((end[view.bid[first]] - counts[first]).sum())
    return total - len(srows)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def otf_kernel(ctx: KernelContext, block_map, *,
               trace_name: str) -> ProtocolResult:
    """OTF over one batch of data rows, vectorized.

    Sync events are no-ops for OTF, so it reads no sync rows.
    Every store invalidates each remote copy exactly once and every copy
    drop *is* such an invalidation, so ``invalidations_sent ==
    invalidations_applied`` = the lifetimes that do not survive the
    batch: those no remote store follows.
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    life = view.lifetimes(hb)
    fetch = life[1]
    live = int((view.first_remote_store(fetch) < 0).sum())
    invalidations = len(fetch) - live
    hb.finish()
    return _result("OTF", ctx, block_map, trace_name, life,
                   Counters(fetches=len(fetch),
                            invalidations_applied=invalidations,
                            invalidations_sent=invalidations))


def min_kernel(ctx: KernelContext, block_map, *,
               trace_name: str) -> ProtocolResult:
    """MIN (write-through, word invalidation) over one batch, vectorized."""
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    rww = ctx.word_remote_rows()
    hb.phase()
    miss = _chain_misses(view, rww, hb)
    order, _, _, num_groups = view.groups()
    life = view.classify(miss, rww[order], hb)
    fetches = len(life[1])
    counters = Counters(fetches=fetches,
                        invalidations_applied=fetches - num_groups,
                        write_throughs=len(ctx.store_rows()),
                        word_invalidations=_held_copy_invalidations(view))
    hb.finish()
    return _result("MIN", ctx, block_map, trace_name, life, counters)


def wbwi_kernel(ctx: KernelContext, block_map, *,
                trace_name: str) -> ProtocolResult:
    """WBWI (write-back, word invalidation, ownership) over one batch."""
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    rww = ctx.word_remote_rows()
    # A store's block owner wrote the block's newest store before it:
    # store k of the block runs, k its exclusive running store count
    # less one (any earlier store of the subsequence is another block's).
    runs, _ = view.block_runs()
    srows = ctx.store_rows()
    k = view.store_counts()[srows].astype(np.int64) - 1
    prior = k >= 0
    k[~prior] = 0
    prior &= runs.unit[k] == view.bid[srows]
    not_owner = prior & (runs.proc[k] != ctx.proc_small[srows])
    value = rww.astype(np.int64)
    value[srows] = np.maximum(value[srows],
                              np.where(not_owner, runs.row[k], -1))
    hb.phase()
    miss = _chain_misses(view, value, hb)
    order, _, _, num_groups = view.groups()
    life = view.classify(miss, rww[order], hb)
    _, fetch, cold, _, _ = life
    ownership = (~cold & (ctx.store8[fetch] != 0)
                 & (rww[fetch] <= _prev_fetch(fetch, cold)))
    transfers = int(((runs.unit[1:] == runs.unit[:-1])
                     & (runs.proc[1:] != runs.proc[:-1])).sum())
    counters = Counters(fetches=len(fetch),
                        invalidations_applied=len(fetch) - num_groups,
                        word_invalidations=_held_copy_invalidations(view),
                        ownership_misses=int(ownership.sum()),
                        ownership_transfers=transfers)
    hb.finish()
    return _result("WBWI", ctx, block_map, trace_name, life, counters)


def _flush_keys(view) -> np.ndarray:
    """Per store of the view's :meth:`~_BlockView.block_runs`, the trace
    row of its writer's first release after it, or the end-of-trace
    flush if none: MAX's deadline and the SD/SRD flush of a buffered
    store are this one lookup, made once per view
    (``searchsorted(ctx.rows, ...)`` turns it into a batch position,
    ``n`` for none)."""
    def build():
        runs, _ = view.block_runs()
        ctx = view.ctx
        return ctx.sync.first_after(RELEASE, runs.proc, ctx.rows[runs.row])
    return view.memo(_flush_keys, build)


def _latest_acquires(view):
    """``(acq, epoch)``, aligned with the view's :meth:`~_BlockView.groups`
    order and made once per view: the trace row of each row's
    processor's latest acquire before it (-1 if none), and whether that
    changed since the group's previous row (a group's first row
    included).  RD and SRD look their as-of-the-acquire values up only
    at these epoch starts."""
    def build():
        ctx = view.ctx
        order, newg, _, _ = view.groups()
        acq = ctx.sync.latest(ACQUIRE, ctx.proc[order], ctx.rows[order])
        epoch = newg.copy()
        np.logical_or(epoch[1:], acq[1:] != acq[:-1], out=epoch[1:])
        return acq, epoch
    return view.memo(_latest_acquires, build)


def rd_kernel(ctx: KernelContext, block_map, *,
              trace_name: str) -> ProtocolResult:
    """RD (receive-delayed invalidations) over one batch, vectorized.

    Reads the trace's acquires (``ctx.sync``): a copy with a buffered
    invalidation (a remote store to the block since its fetch) is
    dropped at its processor's next acquire, or refetched at its
    processor's next store to the block (an ownership miss), whichever
    comes first.
    """
    hb = _Heartbeat(ctx.n)
    n = ctx.n
    stride = n + 1
    rows, sync = ctx.rows, ctx.sync
    view = ctx.block_view(block_map.offset_bits)
    runs, bkeys = view.block_runs()

    def remote_before(proc, bid, pos):
        """Newest store to ``bid`` by another processor before ``pos``."""
        return np.where(pos > 0,
                        remote_store_before(runs, bkeys, stride, bid,
                                            proc, pos), -1)

    # The newest remote store before the processor's latest acquire only
    # changes where it acquired since its previous access to the block,
    # so it is looked up at those epoch starts and carried along the
    # (block, processor) group.  An acquire's batch position is the
    # batch rows before it: 0, nothing to apply, for none or one before
    # the batch.
    order = view.groups()[0]
    acq, epoch = _latest_acquires(view)
    first = order[epoch]
    rb_epoch = remote_before(ctx.proc[first], view.bid[first],
                             np.searchsorted(rows, acq[epoch]))
    rb_acq = np.empty(n, dtype=np.int64)
    rb_acq[order] = rb_epoch[np.cumsum(epoch) - 1]
    srows = ctx.store_rows()
    value = rb_acq.copy()
    value[srows] = np.maximum(value[srows], remote_before(
        ctx.proc[srows], view.bid[srows], srows))
    hb.phase()
    miss = _chain_misses(view, value, hb)

    # The essential test reads the word as of the lifetime's fetch.
    newest = _newest_as_of_fetch(view, miss)
    hb.phase()
    life = view.classify(miss, newest, hb)
    _, fetch, cold, _, _ = life

    # Ownership misses: non-cold store misses no acquire dropped for.
    prev = _prev_fetch(fetch, cold)
    own = ~cold & (ctx.store8[fetch] != 0) & (rb_acq[fetch] <= prev)
    # A group's last lifetime is dropped iff a remote store to the block
    # precedes the processor's last acquire and postdates the fetch.
    last = np.append(cold[1:], True) if len(fetch) else cold
    fproc = ctx.proc[fetch]
    fbid = view.bid[fetch]
    last_acq = np.searchsorted(rows, sync.last(ACQUIRE, fproc))
    dropped = last & (remote_before(fproc, fbid, last_acq) > fetch)
    live = int(last.sum() - dropped.sum())

    # Each lifetime is alive over rows [fetch, end): end is the next
    # fetch after an ownership miss, the dropping acquire, or the batch
    # end.  The dropping acquire is the first one after the first remote
    # store to the block since the fetch.
    end = np.full(len(fetch), n, dtype=np.int64)
    own_next = np.append(own[1:], False) if len(fetch) else own
    end[own_next] = np.append(fetch[1:], 0)[own_next]
    need = np.flatnonzero((~last & ~own_next) | dropped)
    if len(need):
        # A remote store follows each of these fetches.
        s1 = view.first_remote_store(fetch[need])
        end[need] = np.searchsorted(
            rows, sync.first_after(ACQUIRE, fproc[need], rows[s1]))
    alive_stores = (np.searchsorted(bkeys, fbid * stride + end)
                    - view.store_counts()[fetch])
    sent = int(alive_stores.sum()) - len(srows)
    counters = Counters(fetches=len(fetch),
                        invalidations_applied=len(fetch) - live,
                        invalidations_sent=sent,
                        ownership_misses=int(own.sum()))
    hb.finish()
    return _result("RD", ctx, block_map, trace_name, life, counters)


def _class_runs(runs, deadline: np.ndarray):
    """Cut a block-sorted store subsequence into *class runs*, maximal
    stretches of stores of one (block, writer, deadline): ``(class of
    each store, first store, stop, deadline, writer)``, the last four
    per class run."""
    m = len(runs.row)
    brk = np.ones(m, dtype=bool)
    if m:
        brk[1:] = ((runs.unit[1:] != runs.unit[:-1])
                   | (runs.proc[1:] != runs.proc[:-1])
                   | (deadline[1:] != deadline[:-1]))
    starts = np.flatnonzero(brk)
    cls = np.cumsum(brk) - 1
    stops = np.append(starts[1:], m)
    return cls, starts, stops, deadline[starts], runs.proc[starts]


def max_kernel(ctx: KernelContext, block_map, *,
               trace_name: str) -> ProtocolResult:
    """MAX (the adversary's invalidation schedule) over one batch.

    Reads the trace's releases (:func:`_flush_keys`).  The module
    docstring derives the per-group rules: deadlines, gaps, pieces, and
    the pending-token count of the contested gaps, a queue whose service
    is one token per access, or every due token at once
    (:func:`_max_pending`).  Every phase is a cancellation point, and
    the earliest-deadline pass one every ``HEARTBEAT_CHUNK`` gaps.
    """
    hb = _Heartbeat(ctx.n)
    n = ctx.n
    view = ctx.block_view(block_map.offset_bits)
    order, newg, gid_sorted, num_groups = view.groups()
    runs, _ = view.block_runs()
    counts = view.store_counts()

    deadline = np.searchsorted(ctx.rows, _flush_keys(view))
    cls, cstart, cstop, cdeadline, cwriter = _class_runs(runs, deadline)
    hb.phase()

    # Gap k ends at group position gap[k]: stores [lo, hi) of the block
    # subsequence, from the previous access (or the block's first store,
    # for the group's first gap) up to the access.
    gap = np.flatnonzero(~newg)
    prev = order[gap - 1]
    at = order[gap]
    lo = counts[prev].astype(np.int64) + ctx.store8[prev]
    first = newg[gap - 1]
    lo[first] = view.block_offsets()[view.bid[prev[first]]]
    hi = counts[at].astype(np.int64)

    # Pieces, in gap order: every class run a gap overlaps, clipped.
    g = np.flatnonzero(hi > lo)
    c0 = cls[lo[g]]
    span = cls[hi[g] - 1] - c0 + 1
    pgap = np.repeat(g, span)
    pcls = np.arange(len(pgap)) - np.repeat(np.cumsum(span) - span - c0,
                                            span)
    pdeadline = cdeadline[pcls]
    # Only a first gap brings expired stores, or q's own (its first
    # access).
    keep = ((pdeadline > prev[pgap])
            & (cwriter[pcls] != ctx.proc_small[at[pgap]]))
    pgap, pcls, pdeadline = pgap[keep], pcls[keep], pdeadline[keep]
    pcount = (np.minimum(hi[pgap], cstop[pcls])
              - np.maximum(lo[pgap], cstart[pcls]))
    # A piece whose deadline passes by the gap's access is burnt there
    # whatever else the group holds: the access misses, and every such
    # token lands on it.
    expired = pdeadline <= at[pgap]
    burnt = np.bincount(pgap[expired], weights=pcount[expired],
                        minlength=len(gap)).astype(np.int64)
    live = ~expired
    pgap, pdeadline, pcount = pgap[live], pdeadline[live], pcount[live]
    hb.phase()

    # Contested gaps: a live piece arrives, or an earlier one of the
    # group has a deadline past the previous access (a segmented running
    # max).  The rest hold no token: they hit, or only burn their own
    # expired pieces.
    latest = np.full(len(gap), -1, dtype=np.int64)
    if len(pgap):
        heads = np.flatnonzero(np.append(True, pgap[1:] != pgap[:-1]))
        latest[pgap[heads]] = np.maximum.reduceat(pdeadline, heads)
    base = gid_sorted[gap].astype(np.int64) * (n + 2) + 1
    before = np.empty(len(gap), dtype=np.int64)
    if len(gap):
        before[0] = -1
        before[1:] = (base + latest)[:-1]
        np.maximum.accumulate(before, out=before)
    before -= base
    contested = (latest >= 0) | (before > prev)
    del before, latest
    burns = np.flatnonzero(~contested & (burnt > 0))
    kills = int(burnt[burns].sum())
    contested = np.flatnonzero(contested)
    hb.phase()

    # Each live piece's tokens arrive at a contested gap and fall due at
    # the group's first access at or past their deadline (every gap in
    # between is contested), or never.
    m = len(contested)
    cgid = gid_sorted[gap[contested]].astype(np.int64)
    r = np.searchsorted(contested, pgap)
    due = np.searchsorted(cgid * (n + 1) + at[contested],
                          cgid[r] * (n + 1) + pdeadline)
    if m:
        due[cgid[np.minimum(due, m - 1)] != cgid[r]] = m
    brn = burnt[contested]
    arrive = np.bincount(r, weights=pcount, minlength=m).astype(np.int64)
    arrive += brn
    closing = due < m
    expire = np.bincount(due[closing], weights=pcount[closing],
                         minlength=m).astype(np.int64)
    expire += brn
    # The queue starts empty at each group's first contested gap and
    # after every gap that is not contested.
    start = np.ones(m, dtype=bool)
    start[1:] = ((contested[1:] != contested[:-1] + 1)
                 | (cgid[1:] != cgid[:-1]))
    hb.phase()

    pending = _max_pending(r, due, pcount, arrive, expire, brn, start, hb)
    missed = contested[_held(pending, start) + arrive > 0]
    ends = np.append(start[1:], True)[:m]
    kills += int(arrive.sum() - pending[ends].sum())
    miss = newg.copy()
    miss[gap[burns]] = True
    miss[gap[missed]] = True
    hb.phase()

    newest = _newest_as_of_fetch(view, miss)
    hb.phase()
    life = view.classify(miss, newest, hb)
    fetches = len(life[1])
    counters = Counters(fetches=fetches,
                        invalidations_applied=fetches - num_groups,
                        invalidations_sent=kills)
    hb.finish()
    return _result("MAX", ctx, block_map, trace_name, life, counters)


def _due_in_order(gaps, cut, r, due, tokens, burnt, hb) -> np.ndarray:
    """The tokens due at each of ``gaps`` (runs of gaps, in order, each
    from the start of a stretch: ``cut`` marks where one starts empty),
    from one earliest-deadline pass: each access spends every due
    token, else one expiring first.  Tokens of one expiry are
    interchangeable, so the heap holds expiries and ``left`` their
    pending counts.  A cancellation point every ``HEARTBEAT_CHUNK``
    gaps."""
    arriving = np.zeros(len(cut), dtype=bool)
    arriving[gaps] = True
    arriving = arriving[r]
    r = r[arriving]
    first = np.searchsorted(r, gaps).tolist()
    last = np.searchsorted(r, gaps, "right").tolist()
    expiry, count = due[arriving].tolist(), tokens[arriving].tolist()
    fresh, burnt = cut[gaps].tolist(), burnt[gaps].tolist()
    ks = gaps.tolist()
    out = [0] * len(ks)
    left = [0] * (len(cut) + 1)
    heap = []
    step = signals.HEARTBEAT_CHUNK
    for lo in range(0, len(ks), step):
        hb.pulse()
        for j in range(lo, min(lo + step, len(ks))):
            if fresh[j]:
                for e in heap:
                    left[e] = 0
                heap = []
            for p in range(first[j], last[j]):
                e = expiry[p]
                if not left[e]:
                    heapq.heappush(heap, e)
                left[e] += count[p]
            k = ks[j]
            u = burnt[j]
            while heap and heap[0] <= k:  # expired: all land now
                u += left[heap[0]]
                left[heapq.heappop(heap)] = 0
            if u:
                out[j] = u
            elif heap:  # the earliest expiry, saving the rest
                e = heap[0]
                left[e] -= 1
                if not left[e]:
                    heapq.heappop(heap)
    return np.array(out, dtype=np.int64)


def _held(pending: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The queue before each access: the previous access's count, 0 at
    a segment start."""
    held = np.zeros(len(pending), dtype=np.int64)
    held[1:] = pending[:-1]
    held[start] = 0
    return held


def _lindley(step: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``q[j] = max(q[j - 1] + step[j], 0)``, from 0 before each segment
    (``start`` marks its first item): the segment's cumulative sum less
    its running minimum, floored at 0."""
    if not len(step):
        return step.copy()
    csum = np.cumsum(step)
    offset = np.where(start, csum - step, 0)
    csum -= offset[np.maximum.accumulate(
        np.where(start, np.arange(len(step)), 0))]
    # One running minimum over every segment: segment s is lowered by s
    # times more than any sum spans, so no earlier one reaches it.
    lift = np.cumsum(start) * (2 * int(np.abs(csum).max()) + 2)
    low = np.minimum.accumulate(np.minimum(csum, 0) - lift) + lift
    return csum - low


def _max_pending(r, due, tokens, arrive, expire, burnt, start, hb):
    """Per contested gap, the tokens still pending after its access.

    The pending count is a queue (:func:`_lindley`) whose service at an
    access is ``max(u, 1)`` for the ``u`` tokens due there: every due
    token, else one.  Bounds fix that service almost everywhere: ``u``
    is at least the tokens burnt at the access, and at most both the
    tokens expiring there and the pending count under the least service
    plus the burnt ones.  Where the two meet, or neither passes 1, the
    service is known.  The other, *hard* gaps take their due counts from
    one earliest-deadline pass (:func:`_due_in_order`) over the busy
    stretches that hold them, up to each one's last hard gap; a stretch
    starts where even the least service empties the queue.

    ``r``/``due``/``tokens``: the pieces (arrival gap, expiry gap or
    ``m`` for never, token count), in arrival order;
    ``arrive``/``expire``/``burnt``: per gap, the tokens arriving,
    expiring (burnt included) and burnt there; ``start`` marks where
    the queue starts empty.
    """
    floor = np.maximum(burnt - 1, 0)               # the least extra service
    most = _lindley(arrive - 1 - floor, start)
    held = _held(most, start)
    hard = np.minimum(expire, held + burnt) > np.maximum(burnt, 1)
    if not hard.any():
        return most
    cut = start.copy()
    cut[1:] |= (held + arrive == 0)[:-1]
    stretch = np.cumsum(cut) - 1
    # Past a stretch's last hard gap the bounds hold again: the pass
    # stops there.
    hard = np.flatnonzero(hard)
    hs = stretch[hard]
    tail = np.append(hs[1:] != hs[:-1], True)
    last = np.full(stretch[-1] + 1, -1)
    last[hs[tail]] = hard[tail]
    last = last[stretch]
    gaps = np.flatnonzero(np.arange(len(cut)) <= last)
    hb.phase()
    floor[gaps] = np.maximum(
        _due_in_order(gaps, cut, r, due, tokens, burnt, hb) - 1, 0)
    # Only the walked stretches change.
    walked = last >= 0
    most[walked] = _lindley((arrive - 1 - floor)[walked], cut[walked])
    return most


# ----------------------------------------------------------------------
# SD and SRD: when each store is performed
# ----------------------------------------------------------------------
class _Performs:
    """When each store of one batch is performed under SD and SRD, at
    one block size.

    Times are *keys*: trace rows, which order the batch's rows and the
    trace's acquires and releases together, a store's immediate perform
    sharing its row's key and the end-of-trace flushes (one per writer,
    :meth:`SyncTable.first_after`'s none) past every row and before
    ``SyncTable.past``.  ``row_key`` maps batch rows to keys, so the
    chains compare keys with keys.  One resolution serves both SD and
    SRD (:meth:`of` caches it on the view).
    """

    @classmethod
    def of(cls, view, hb) -> "_Performs":
        """The view's resolution, built by its first SD or SRD cell."""
        return view.memo(cls, lambda: cls(view, hb))

    def __init__(self, view, hb):
        ctx = view.ctx
        past = ctx.sync.past
        self.procs = ctx.num_procs
        self.stride = past + 1
        self.row_key = ctx.rows

        # Each store's flush is its writer's first release after it, else
        # the writer's end-of-trace flush.  A candidate flush is one
        # (block, flush)'s stores, taken per block in flush order: the
        # stores are immediate while their writer owns the block, which
        # it does iff the block's latest flush before the first of them
        # was its own, up to the block's next flush; the rest are
        # buffered, and the candidate flushes iff one is.  Every flush
        # that decides a candidate precedes the candidate's own, so one
        # pass decides them all.
        runs, _ = view.block_runs()
        skey = self.row_key[runs.row]
        # One packed sort groups the stores by candidate, in store order.
        keys = runs.unit.astype(np.int64) * self.stride + _flush_keys(view)
        by_cand, keys = pack_order(keys, int(keys.max()) if len(keys) else 0)
        head = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        stops = np.append(starts[1:], len(keys))[:len(starts)]
        cand = np.empty(len(keys), dtype=np.int64)
        cand[by_cand] = np.cumsum(head) - 1
        cblock, cflush = np.divmod(keys[starts].astype(np.int64),
                                   self.stride)
        cwriter = runs.proc[by_cand[starts]]
        grouped = skey[by_cand]
        hb.phase()
        cut = self._resolve(cblock.tolist(), cwriter.tolist(),
                            grouped[starts].tolist(),
                            grouped[stops - 1].tolist(),
                            cflush.tolist(), past, hb)
        immediate = skey < cut[cand]
        buffered = np.bincount(cand[~immediate], minlength=len(starts))
        flushed = np.flatnonzero(buffered)
        self.stores_buffered = int(buffered.sum())
        self.flushes = len(flushed)
        fblock = cblock[flushed]  # sorted, as the candidates are
        self.flushed_blocks = int(np.count_nonzero(fblock[1:] != fblock[:-1])
                                  + (len(fblock) > 0))
        hb.phase()

        # The perform events, per block and per word, in key order.
        self._blocks = self._sorted(
            np.append(runs.unit[immediate], fblock),
            np.append(skey[immediate], cflush[flushed]),
            np.append(runs.proc[immediate], cwriter[flushed]))
        bunit, bkey, bproc, _ = self._blocks
        self.runs = event_runs(bkey, bunit, bproc.astype(np.int16))
        # Each block's first perform, past every key if none.
        self._first = np.full(view.num_blocks, past, dtype=np.int64)
        head = np.flatnonzero(np.append(True, bunit[1:] != bunit[:-1])) \
            if len(bunit) else bunit
        self._first[bunit[head]] = bkey[head]
        pairs = (cand[~immediate] * ctx.num_words
                 + ctx.wid[runs.row[~immediate]])
        _, pairs = pack_order(pairs, len(starts) * ctx.num_words)
        pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])] \
            if len(pairs) else pairs
        pcand, pword = np.divmod(pairs.astype(np.int64), ctx.num_words)
        self._words = self._sorted(
            np.append(ctx.wid[runs.row[immediate]], pword),
            np.append(skey[immediate], cflush[pcand]),
            np.append(runs.proc[immediate], cwriter[pcand]))
        hb.phase()

    def _sorted(self, unit, key, proc):
        """``(unit, key, proc)`` of events ordered by (unit, key), plus
        their ``unit * stride + key`` search keys."""
        keys = unit.astype(np.int64) * self.stride + key
        order, keys = pack_order(keys, int(keys.max()) if len(keys) else 0)
        return (unit.astype(np.int64)[order], key[order],
                proc.astype(np.int64)[order],
                keys.astype(np.int64, copy=False))

    @staticmethod
    def _resolve(block, writer, first, last, flush, past, hb):
        """Per candidate, the key before which its stores are immediate
        (``first``/``last``: its first and last store's, ``flush``: its
        flush's; ``past`` is past every key)."""
        cut = []
        step = signals.HEARTBEAT_CHUNK
        current = None
        for start in range(0, len(block), step):
            hb.pulse()
            for c in range(start, min(start + step, len(block))):
                if block[c] != current:
                    current = block[c]
                    at, who = [], []
                k = bisect.bisect_right(at, first[c])
                if k and who[k - 1] == writer[c]:
                    stop = at[k] if k < len(at) else past
                else:
                    stop = first[c]
                cut.append(stop)
                if last[c] >= stop:
                    at.append(flush[c])
                    who.append(writer[c])
        return np.array(cut, dtype=np.int64)

    # -- queries (keys in, keys out; -1 for none) -----------------------
    def remote_before(self, bid, proc, key):
        """Newest perform to the block before ``key`` by another writer."""
        return remote_store_before(self.runs, self._blocks[3],
                                   self.stride, bid, proc, key)

    def any_before(self, bid, key) -> np.ndarray:
        """Whether some perform to the block precedes ``key``."""
        return self._first[bid] < key

    def remote_after(self, bid, proc, key):
        """First perform to the block after ``key`` by another writer
        (the caller knows there is one)."""
        runs = self.runs
        k = np.searchsorted(self._blocks[3], bid * self.stride + key, "right")
        mine = np.flatnonzero(runs.proc[k] == proc)
        if len(mine):
            k[mine] = next_run(runs)[k[mine]]
        return runs.row[k]

    def remote_between(self, bid, proc, lo, hi) -> np.ndarray:
        """Performs to the block by another writer with keys in (lo, hi)."""
        bunit, bkey, bproc, keys = self._blocks
        own_keys = np.sort((bunit * self.procs + bproc) * self.stride + bkey)

        def count(keys, base):
            return (np.searchsorted(keys, base + hi)
                    - np.searchsorted(keys, base + lo, "right"))

        return (count(keys, bid * self.stride)
                - count(own_keys, (bid * self.procs + proc) * self.stride))

    def classify(self, view, miss, hb):
        """:meth:`_BlockView.classify` over performs: each access reads
        the newest perform to its word before its lifetime's fetch (-1
        when the accessing processor made it), and a lifetime is dirty
        iff some perform to the block precedes its fetch."""
        ctx = view.ctx
        n = ctx.n
        order = view.groups()[0]
        at = np.where(miss, np.arange(n), 0)
        fetch_key = self.row_key[order[np.maximum.accumulate(at)]] \
            if n else at
        wunit, wkey, wproc, wkeys = self._words
        newest = np.full(n, -1, dtype=np.int64)
        if len(wkeys):
            word = ctx.wid[order]
            k = np.searchsorted(wkeys, word * self.stride + fetch_key) - 1
            ok = k >= 0
            k[~ok] = 0
            ok &= (wunit[k] == word) & (wproc[k] != ctx.proc[order])
            newest = np.where(ok, wkey[k], -1)
        hb.phase()
        starts, fetch, cold, _, ess = view.classify(miss, newest, hb,
                                                    self.row_key)
        dirty = self.any_before(view.bid[fetch], self.row_key[fetch])
        return starts, fetch, cold, dirty, ess

    def counters(self, **kw) -> Counters:
        return Counters(stores_buffered=self.stores_buffered,
                        stores_combined=self.stores_buffered - self.flushes,
                        ownership_transfers=(self.flushes
                                             - self.flushed_blocks),
                        **kw)


def sd_kernel(ctx: KernelContext, block_map, *,
              trace_name: str) -> ProtocolResult:
    """SD (send-delayed stores) over one batch: OTF's rule over performs.

    Reads the trace's releases.  A row misses iff it opens its group
    or another writer performed to the block since the group's previous
    access; every copy lost is dropped by such a perform, so
    ``invalidations_sent == invalidations_applied``, and a group's last
    lifetime is dropped iff another writer performs to the block after
    its last access, the end-of-trace flushes included.
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    pf = _Performs.of(view, hb)
    order, newg, _, _ = view.groups()
    key = pf.row_key[order]
    proc, bid = ctx.proc[order], view.bid[order]
    newest = pf.remote_before(bid, proc, key)
    miss = newg.copy()
    miss[1:] |= newest[1:] > key[:-1]
    hb.phase()
    life = pf.classify(view, miss, hb)
    last = np.flatnonzero(np.append(newg[1:], True)) if ctx.n else newg
    live = int((pf.remote_before(bid[last], proc[last], ctx.sync.past)
                < key[last]).sum())
    fetches = len(life[1])
    counters = pf.counters(fetches=fetches,
                           invalidations_applied=fetches - live,
                           invalidations_sent=fetches - live)
    hb.finish()
    return _result("SD", ctx, block_map, trace_name, life, counters)


def srd_kernel(ctx: KernelContext, block_map, *,
               trace_name: str) -> ProtocolResult:
    """SRD (send- and receive-delayed) over one batch: RD's rule over
    performs.

    Reads the trace's acquires and releases.  A copy that another
    writer's perform made stale is dropped at its processor's next
    acquire, or refetched at its processor's next store to the block
    (an ownership miss), whichever comes first.
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    pf = _Performs.of(view, hb)
    sync = ctx.sync

    # As in RD: the value at the processor's latest acquire only changes
    # where it acquired since its previous access to the block.
    order, newg, gid_sorted, _ = view.groups()
    key = pf.row_key[order]
    proc, bid = ctx.proc[order], view.bid[order]
    acq, epoch = _latest_acquires(view)
    rb_acq = pf.remote_before(bid[epoch], proc[epoch], acq[epoch])[
        np.cumsum(epoch) - 1]
    value = rb_acq.copy()
    st = np.flatnonzero(ctx.store8[order])
    value[st] = np.maximum(value[st],
                           pf.remote_before(bid[st], proc[st], key[st]))
    value[newg] = np.maximum(value[newg], 0)
    hb.phase()
    miss = essential_chain(gid_sorted, value, key, hb)
    life = pf.classify(view, miss, hb)
    starts, fetch, cold, _, _ = life

    # Ownership misses: non-cold store misses no acquire dropped for.
    prev = _prev_fetch(fetch, cold)
    prev = np.where(prev >= 0, pf.row_key[prev], -1)
    own = ~cold & (ctx.store8[fetch] != 0) & (rb_acq[starts] <= prev)
    # A group's last lifetime is dropped iff another writer's perform
    # precedes the processor's last acquire and follows the fetch.
    last = np.append(cold[1:], True) if len(fetch) else cold
    fproc = ctx.proc[fetch]
    fbid = view.bid[fetch]
    fkey = pf.row_key[fetch]
    dropped = last & (pf.remote_before(
        fbid, fproc, sync.last(ACQUIRE, fproc)) > fkey)
    live = int(last.sum() - dropped.sum())

    # Each lifetime holds its copy over keys (fetch, end): end is the
    # refetch of an ownership miss, the dropping acquire (the first one
    # after the first other writer's perform since the fetch), or past
    # the end-of-trace flushes.
    end = np.full(len(fetch), sync.past, dtype=np.int64)
    own_next = np.append(own[1:], False) if len(fetch) else own
    end[own_next] = pf.row_key[np.append(fetch[1:], 0)[own_next]]
    need = np.flatnonzero((~last & ~own_next) | dropped)
    if len(need):
        q = fproc[need]
        first = pf.remote_after(fbid[need], q, fkey[need])
        end[need] = sync.first_after(ACQUIRE, q, first)
    sent = int(pf.remote_between(fbid, fproc, fkey, end).sum())
    counters = pf.counters(fetches=len(fetch),
                           invalidations_applied=len(fetch) - live,
                           invalidations_sent=sent,
                           ownership_misses=int(own.sum()))
    hb.finish()
    return _result("SRD", ctx, block_map, trace_name, life, counters)
