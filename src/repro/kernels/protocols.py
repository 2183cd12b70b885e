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
``n`` if none — the batch's release table, remapped like its acquires,
makes comparisons with batch rows exact.  For q's consecutive accesses
a < a', the tokens q can use at a' are exactly the unspent remote stores
s < a' with D(s) > a (any with an earlier deadline would have been
forced at a).  At a' q misses iff one is left; if some have D <= a' they
are all spent (``invalidations_sent += count``), else one with the
smallest deadline is.  The stores to b between a and a' — and, for the
group's first gap, those before q's first access with D past it — are
cut from :meth:`_BlockView.block_runs` into pieces of one (writer,
deadline).  A gap can miss only if a piece arrives in it or an earlier
piece of the group has a deadline past a (a segmented running max); a
gap whose only pieces expire by a' misses and burns them without
touching the rest.  Only the other contested gaps run the one
sequential loop, an earliest-deadline heap per group: O(misses +
pieces), not O(rows).

SD and SRD first resolve when each store is performed
(:class:`_Performs`).  A block's owner changes only at a flush, so a
store by q is performed at issue iff the block's latest flush before it
was q's, and is otherwise buffered until q's next release (or the end
of the trace).  Grouping the stores by (block, writer, the writer's
next release) gives *candidate flushes*; taken per block in release
order, a candidate's stores are immediate iff the latest flush before
its first store was its writer's, up to the block's next flush (another
writer's), and buffered after; it flushes iff one is buffered.  Every
flush that decides a candidate precedes the candidate's own release, so
one loop over the candidates decides them all.  Flushes sit between
batch rows, and their keys order them against rows and acquires
exactly.  Then:

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

Batches.  :func:`run_protocol_kernel` is the one entry point for every
kernelled cell: it runs the kernel over batches of whole blocks, at most
:data:`BATCH_ROWS` data rows each, so a cell's kernel memory is bounded
by the batch, not by the trace, and sums the partial results — exact for
the same reason block shards are (every state machine is per
(block, processor), every comparison is order-only).  A caller that runs
many cells over one trace (the sweep engine) may instead keep the batch
contexts, cut at 1024-byte units, and share them across protocols and
block sizes.
"""

from __future__ import annotations

import bisect
import functools
import heapq
from typing import Dict, Optional

import numpy as np

from ..mem.addresses import BlockMap, PAPER_BLOCK_SIZES
from ..protocols.results import Counters, ProtocolResult, merge_shard_results
from ..runtime import signals
from ..trace.events import ACQUIRE, RELEASE
from .classifiers import KernelContext, _Heartbeat, lifetime_breakdown
from .segments import essential_chain, event_runs, remote_store_before

__all__ = ["BATCH_ROWS", "run_protocol_kernel", "otf_kernel", "min_kernel",
           "wbwi_kernel", "rd_kernel", "max_kernel", "sd_kernel",
           "srd_kernel"]

#: Data rows per kernel batch.  A batch is a set of whole units — blocks,
#: or cache sets for the finite kernel; a single unit with more rows
#: than this is a batch of its own.
BATCH_ROWS = 1 << 14

#: Shared batches (:func:`run_protocol_kernel` with ``contexts``) are
#: cut at units of ``2**_UNIT_BITS`` words — the paper's largest block,
#: 1024 bytes — so one trace's batches serve every block size up to it.
_UNIT_BITS = BlockMap(max(PAPER_BLOCK_SIZES)).offset_bits


# ----------------------------------------------------------------------
# the batched entry point
# ----------------------------------------------------------------------
#: Rows per slice when the planner fills or scans its packed keys, so
#: no temporary is trace-sized.
_SCAN_ROWS = 1 << 16


def _unit_batches(units: np.ndarray, select: np.ndarray):
    """Time-ordered row-index arrays of batches of whole units.

    ``units`` holds each row's unit id — its block, or its cache set —
    and is consumed: the planner packs its keys into it in place.  The
    rows picked by ``select`` are ordered by (unit, row) through one
    in-place sort of packed ``unit << shift | row`` keys, then cut
    greedily at unit boundaries into batches of at most
    :data:`BATCH_ROWS` rows (a single larger unit is a batch of its
    own).  While the batches run, only the sorted row order is kept —
    4 bytes a row, the one trace-sized array.
    """
    n = len(units)
    count = int(np.count_nonzero(select))
    if not count:
        return
    shift = max((n - 1).bit_length(), 1)
    packed = units
    del units  # dropped with ``packed`` before the batches run
    packed[~select] = 0  # unselected rows (e.g. sync) carry no unit
    if int(packed.max()) >= 1 << (62 - shift):  # pragma: no cover - sparse
        packed = np.unique(packed, return_inverse=True)[1].reshape(-1)
    packed <<= shift
    for lo in range(0, n, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, n)
        packed[lo:hi] |= np.arange(lo, hi)
    packed[~select] = np.iinfo(np.int64).max  # sorts past every row
    del select  # the mask is not kept while the batches run
    packed.sort()
    order = np.empty(count, dtype=np.int32 if n < 1 << 31 else np.int64)
    row_mask = np.int64((1 << shift) - 1)
    # 0 is an end too, so a first unit larger than a batch is cut alone.
    ends = [np.array([0, count])]
    for lo in range(0, count, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, count)
        order[lo:hi] = packed[lo:hi] & row_mask
        unit = packed[lo:hi + 1] >> shift
        ends.append(np.flatnonzero(unit[1:] != unit[:-1]) + lo + 1)
    del packed
    ends = np.unique(np.concatenate(ends))  # slice overlaps repeat one
    start = 0
    while start < count:
        stop = int(ends[np.searchsorted(ends, start + BATCH_ROWS,
                                        "right") - 1])
        if stop <= start:  # one unit larger than a batch
            stop = int(ends[np.searchsorted(ends, start, "right")])
        yield np.sort(order[start:stop]).astype(np.int64)
        start = stop


def _sync_rows(columns, op: int):
    """``(proc, row)`` of the trace's ``op`` rows."""
    rows = np.flatnonzero(columns.op == op)
    return columns.proc[rows], rows


def _remap(table, rows: np.ndarray):
    """A ``(proc, row)`` sync table in one batch's positions: a batch row
    follows a sync row iff its trace row does.  One before every row of
    the batch has nothing to apply, and is dropped.  The trace rows stay
    as the table's third column, ordering acquires and releases
    together."""
    proc, at = table
    pos = np.searchsorted(rows, at)
    live = pos > 0
    return proc[live], pos[live], at[live]


def _batch_contexts(columns, num_procs: int, unit_bits: int,
                    select: np.ndarray):
    """One :class:`KernelContext` per batch of whole ``2**unit_bits``-word
    units of the selected rows, in order, each carrying every acquire and
    release of the trace remapped to its own rows.  Only MAX reads the
    releases, so a batch remaps them on first use."""
    acquires = _sync_rows(columns, ACQUIRE)
    releases = _sync_rows(columns, RELEASE)
    batches = _unit_batches(columns.addr >> unit_bits, select)
    del select
    for rows in batches:
        yield KernelContext(columns.proc[rows], columns.op[rows],
                            columns.addr[rows], num_procs,
                            _remap(acquires, rows),
                            functools.partial(_remap, releases, rows))


def run_protocol_kernel(name: str, columns, num_procs: int, block_map, *,
                        trace_name: str,
                        select: Optional[np.ndarray] = None,
                        contexts: Optional[Dict] = None,
                        stats: Optional[Dict] = None) -> ProtocolResult:
    """Run protocol ``name``'s kernel over batches of whole blocks.

    ``columns`` are a whole trace's columns, sync rows included;
    ``select`` (default: every data row) masks the LOAD/STORE rows to
    simulate — a trace's data rows, or one block shard's.  Every acquire
    of the trace applies.  Bit-identical to the protocol's simulator
    over the selected rows plus every acquire and release.

    Without ``contexts`` each batch context is dropped once its kernel
    returns, so the cell's memory is bounded by the batch.
    ``contexts`` is a dict the caller keeps across cells over the same
    ``columns`` and ``select`` to share the batch contexts — and the
    block-size-independent word tables they build — between them.  The
    batches are then cut at :data:`_UNIT_BITS` units (or the cell's
    blocks, if larger), so every block size up to the unit reuses them.
    """
    from . import PROTOCOL_KERNELS  # looked up per call: tests wrap it

    kernel = PROTOCOL_KERNELS[name]
    unit_bits = block_map.offset_bits
    if contexts is not None:
        unit_bits = max(unit_bits, _UNIT_BITS)
    batches = None if contexts is None else contexts.get(unit_bits)
    if batches is None:
        batches = _batch_contexts(
            columns, num_procs, unit_bits,
            columns.data_mask() if select is None else select)
        if contexts is not None:
            batches = contexts[unit_bits] = list(batches)
    return _run_batches(
        lambda ctx: kernel(ctx, block_map, trace_name=trace_name,
                           stats=stats),
        batches, num_procs)


def _run_batches(run, contexts, num_procs: int) -> ProtocolResult:
    """Merge ``run(ctx)`` over the batch ``contexts``, dropping each
    context once its kernel returns; a cell with no rows runs once on an
    empty context."""
    parts = [run(ctx) for ctx in contexts]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        parts.append(run(KernelContext(empty, empty, empty, num_procs)))
    return merge_shard_results(parts)


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


def _next_run(runs) -> np.ndarray:
    """Per store of a unit-sorted subsequence: the index of the first
    store of the next same-writer run (``len`` past the end)."""
    m = len(runs.row)
    brk = np.empty(m, dtype=bool)
    if m:
        brk[0] = True
        brk[1:] = ((runs.unit[1:] != runs.unit[:-1])
                   | (runs.proc[1:] != runs.proc[:-1]))
    starts = np.where(brk, np.arange(m), m)
    nxt = np.minimum.accumulate(starts[::-1])[::-1]
    return np.append(nxt[1:], m)


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
def otf_kernel(ctx: KernelContext, block_map, *, trace_name: str,
               stats: Optional[Dict] = None) -> ProtocolResult:
    """OTF over one batch of data rows, vectorized.

    Sync events are no-ops for OTF, so the acquire table is unused.
    Every store invalidates each remote copy exactly once and every copy
    drop *is* such an invalidation, so ``invalidations_sent ==
    invalidations_applied`` = the lifetimes that do not survive the
    batch; a group's last lifetime survives iff the newest remote store
    to the block precedes the group's last access.
    """
    hb = _Heartbeat(ctx.n, stats)
    view = ctx.block_view(block_map.offset_bits)
    life = view.lifetimes(hb)
    fetch = life[1]
    live = 0
    if ctx.n:
        order, newg, _, _ = view.groups()
        last_row = order[np.flatnonzero(np.append(newg[1:], True))]
        runs, keys = view.block_runs()
        remote_final = remote_store_before(
            runs, keys, ctx.n + 1, view.bid[last_row], ctx.proc[last_row],
            np.full(len(last_row), ctx.n))
        live = int((remote_final < last_row).sum())
    invalidations = len(fetch) - live
    hb.finish()
    return _result("OTF", ctx, block_map, trace_name, life,
                   Counters(fetches=len(fetch),
                            invalidations_applied=invalidations,
                            invalidations_sent=invalidations))


def min_kernel(ctx: KernelContext, block_map, *, trace_name: str,
               stats: Optional[Dict] = None) -> ProtocolResult:
    """MIN (write-through, word invalidation) over one batch, vectorized."""
    hb = _Heartbeat(ctx.n, stats)
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


def wbwi_kernel(ctx: KernelContext, block_map, *, trace_name: str,
                stats: Optional[Dict] = None) -> ProtocolResult:
    """WBWI (write-back, word invalidation, ownership) over one batch."""
    hb = _Heartbeat(ctx.n, stats)
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


def rd_kernel(ctx: KernelContext, block_map, *, trace_name: str,
              stats: Optional[Dict] = None) -> ProtocolResult:
    """RD (receive-delayed invalidations) over one batch, vectorized.

    Reads ``ctx``'s acquire table: a copy with a buffered invalidation
    (a remote store to the block since its fetch) is dropped at its
    processor's next acquire, or refetched at its processor's next store
    to the block (an ownership miss), whichever comes first.
    """
    hb = _Heartbeat(ctx.n, stats)
    n = ctx.n
    stride = n + 1
    view = ctx.block_view(block_map.offset_bits)
    runs, bkeys = view.block_runs()
    akeys, aproc, apos = ctx.acquires_sorted()

    def latest_acquire(proc, pos):
        """Position of ``proc``'s latest acquire at or before ``pos``."""
        if not len(akeys):
            return np.full(len(proc), -1, dtype=np.int64)
        j = np.searchsorted(akeys, proc * stride + pos, "right") - 1
        ok = j >= 0
        j[~ok] = 0
        ok &= aproc[j] == proc
        return np.where(ok, apos[j], -1)

    def remote_before(proc, bid, pos):
        """Newest store to ``bid`` by another processor before ``pos``."""
        return np.where(pos > 0,
                        remote_store_before(runs, bkeys, stride, bid,
                                            proc, pos), -1)

    # The newest remote store before the processor's latest acquire only
    # changes where it acquired since its previous access to the block,
    # so it is looked up at those epoch starts and carried along the
    # (block, processor) group.
    order, newg, _, _ = view.groups()
    acq = latest_acquire(ctx.proc[order], order)
    epoch = newg.copy()
    np.logical_or(epoch[1:], acq[1:] != acq[:-1], out=epoch[1:])
    first = order[epoch]
    rb_epoch = remote_before(ctx.proc[first], view.bid[first], acq[epoch])
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
    dropped = last & (remote_before(fproc, fbid,
                                    latest_acquire(fproc, n)) > fetch)
    live = int(last.sum() - dropped.sum())

    # Each lifetime is alive over rows [fetch, end): end is the next
    # fetch after an ownership miss, the dropping acquire, or the batch
    # end.  The dropping acquire is the first one after the first remote
    # store to the block since the fetch.
    end = np.full(len(fetch), n, dtype=np.int64)
    own_next = np.append(own[1:], False) if len(fetch) else own
    end[own_next] = np.append(fetch[1:], 0)[own_next]
    need = np.flatnonzero((~last & ~own_next) | dropped)
    counts = view.store_counts()
    if len(need):
        m = fetch[need]
        q = fproc[need]
        k0 = counts[m].astype(np.int64) + ctx.store8[m]
        # k0 names a store to the block (a remote store follows the
        # fetch); when it is q's own, the next run's first store is the
        # first remote one.
        s1 = runs.row[k0]
        mine = np.flatnonzero(runs.proc[k0] == q)
        if len(mine):
            s1[mine] = runs.row[_next_run(runs)[k0[mine]]]
        end[need] = apos[np.searchsorted(akeys, q * stride + s1, "right")]
    alive_stores = (np.searchsorted(bkeys, fbid * stride + end)
                    - counts[fetch])
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


def max_kernel(ctx: KernelContext, block_map, *, trace_name: str,
               stats: Optional[Dict] = None) -> ProtocolResult:
    """MAX (the adversary's invalidation schedule) over one batch.

    Reads ``ctx``'s release table.  The module docstring derives the
    per-group rules: deadlines, gaps, pieces and the earliest-deadline
    loop over the contested gaps, which is a cancellation point every
    ``HEARTBEAT_CHUNK`` of them.
    """
    hb = _Heartbeat(ctx.n, stats)
    n = ctx.n
    view = ctx.block_view(block_map.offset_bits)
    order, newg, gid_sorted, num_groups = view.groups()
    runs, _ = view.block_runs()
    counts = view.store_counts()

    rkeys, rproc, rpos = ctx.releases_sorted()
    writer = runs.proc.astype(np.int64)
    deadline = np.full(len(writer), n, dtype=np.int64)
    if len(rkeys):
        j = np.searchsorted(rkeys, writer * (n + 1) + runs.row, "right")
        np.minimum(j, len(rkeys) - 1, out=j)
        found = (rproc[j] == writer) & (rpos[j] > runs.row)
        deadline[found] = rpos[j[found]]
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
    # Tokens of one deadline are interchangeable: one heap entry each
    # per gap.
    key = pgap * (n + 1) + pdeadline
    key, inverse = np.unique(key, return_inverse=True)
    pcount = np.bincount(inverse.reshape(-1), weights=pcount).astype(np.int64)
    pgap, pdeadline = np.divmod(key, n + 1)
    hb.phase()

    # Contested gaps: a live piece arrives, or an earlier one of the
    # group has a deadline past the previous access (a segmented running
    # max).  The rest hit, or only burn their own expired pieces.
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

    missed = []
    heap = []
    group = -1
    deadlines, tokens = pdeadline.tolist(), pcount.tolist()
    lo_piece = np.searchsorted(pgap, contested).tolist()
    hi_piece = np.searchsorted(pgap, contested, "right").tolist()
    gids = gid_sorted[gap[contested]].tolist()
    rows = at[contested].tolist()
    burnt = burnt[contested].tolist()
    step = signals.HEARTBEAT_CHUNK
    for start in range(0, len(contested), step):
        hb.pulse()
        for k in range(start, min(start + step, len(contested))):
            if gids[k] != group:
                group = gids[k]
                heap = []
            for p in range(lo_piece[k], hi_piece[k]):
                heapq.heappush(heap, [deadlines[p], tokens[p]])
            row = rows[k]
            spent = burnt[k]
            while heap and heap[0][0] <= row:  # expired: all land now
                spent += heapq.heappop(heap)[1]
            if not spent:
                if not heap:
                    continue
                spent = 1  # the earliest deadline, saving the rest
                top = heap[0]
                top[1] -= 1
                if not top[1]:
                    heapq.heappop(heap)
            kills += spent
            missed.append(k)
    miss = newg.copy()
    miss[gap[burns]] = True
    miss[gap[contested[missed]]] = True
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


# ----------------------------------------------------------------------
# SD and SRD: when each store is performed
# ----------------------------------------------------------------------
class _Performs:
    """When each store of one batch is performed under SD and SRD.

    Times are *keys*: every batch row and every sync event of the
    batch's tables numbered in trace order, with a store's immediate
    perform sharing its row's key and the end-of-trace flushes (one per
    writer, in processor order) numbered past everything.  ``row_key``
    maps rows to keys, so the chains compare keys with keys.
    """

    def __init__(self, ctx, view, hb, acquires: bool):
        n = ctx.n
        procs = ctx.num_procs
        rproc, rpos = ctx.release_table()
        aseq, rseq = ctx.sync_seq()
        nrel = len(rpos)
        rel_key = rpos + np.arange(nrel)
        positions = rpos
        if acquires:
            apos = ctx.acq_pos
            rel_key += np.searchsorted(aseq, rseq)
            self.acq_key = (apos + np.arange(len(apos))
                            + np.searchsorted(rseq, aseq, "right"))
            positions = np.append(rpos, apos)
        syncs = len(positions)
        # Row t's key: t plus the sync events at positions <= t.
        self.row_key = np.cumsum(np.bincount(positions, minlength=n + 1)[:n])
        self.row_key += np.arange(n)
        end = n + syncs
        self.stride = end + procs + 1
        self.procs = procs

        # Each store's flush: its writer's first release after it (an
        # index into the release table, which is in trace order), else
        # the writer's end-of-trace flush.
        runs, _ = view.block_runs()
        writer = runs.proc.astype(np.int64)
        flush = nrel + writer
        if nrel:
            rkeys = rproc * (n + 1) + rpos
            by_proc = np.argsort(rkeys, kind="stable")
            j = np.searchsorted(rkeys[by_proc], writer * (n + 1) + runs.row,
                                "right")
            j = by_proc[np.minimum(j, nrel - 1)]
            found = (rproc[j] == writer) & (rpos[j] > runs.row)
            flush[found] = j[found]
        flush_pos = np.append(rpos, np.full(procs, n))
        flush_key = np.append(rel_key, end + np.arange(procs))
        flush_proc = np.append(rproc, np.arange(procs))

        # A candidate flush is one (block, flush)'s stores, taken per
        # block in flush order: the stores are immediate while their
        # writer owns the block, which it does iff the block's latest
        # flush before the first of them was its own, up to the block's
        # next flush; the rest are buffered, and the candidate flushes
        # iff one is.  Every flush that decides a candidate precedes the
        # candidate's own, so one pass decides them all.
        cand_keys, cand = np.unique(
            runs.unit.astype(np.int64) * (nrel + procs) + flush,
            return_inverse=True)
        cand = cand.reshape(-1)
        cblock, cflush = np.divmod(cand_keys, nrel + procs)
        grouped = runs.row[np.argsort(cand, kind="stable")]
        sizes = np.bincount(cand, minlength=len(cand_keys))
        stops = np.cumsum(sizes)
        starts = stops - sizes
        hb.phase()
        cut = self._resolve(cblock.tolist(), flush_proc[cflush].tolist(),
                            grouped[starts].tolist(),
                            grouped[stops - 1].tolist(),
                            flush_pos[cflush].tolist(), n, hb)
        immediate = runs.row < cut[cand]
        buffered = np.bincount(cand[~immediate], minlength=len(cand_keys))
        flushed = np.flatnonzero(buffered)
        self.stores_buffered = int(buffered.sum())
        self.flushes = len(flushed)
        fblock = cblock[flushed]
        self.flushed_blocks = len(np.unique(fblock))
        hb.phase()

        # The perform events, per block and per word, in key order.
        srows = runs.row[immediate]
        fkey = flush_key[cflush[flushed]]
        fproc = flush_proc[cflush[flushed]]
        self._blocks = self._sorted(
            np.append(runs.unit[immediate], fblock),
            np.append(self.row_key[srows], fkey),
            np.append(runs.proc[immediate], fproc))
        bunit, bkey, bproc, _ = self._blocks
        self.runs = event_runs(bkey, bunit, bproc.astype(np.int16))
        pairs = np.unique(cand[~immediate] * ctx.num_words
                          + ctx.wid[runs.row[~immediate]])
        pcand, pword = np.divmod(pairs, ctx.num_words)
        pflush = cflush[pcand]
        self._words = self._sorted(
            np.append(ctx.wid[srows], pword),
            np.append(self.row_key[srows], flush_key[pflush]),
            np.append(runs.proc[immediate], flush_proc[pflush]))
        hb.phase()

    def _sorted(self, unit, key, proc):
        """``(unit, key, proc)`` of events ordered by (unit, key), plus
        their ``unit * stride + key`` search keys."""
        keys = unit.astype(np.int64) * self.stride + key
        order = np.argsort(keys)
        return (unit.astype(np.int64)[order], key[order],
                proc.astype(np.int64)[order], keys[order])

    @staticmethod
    def _resolve(block, writer, first, last, pos, n, hb):
        """Per candidate, the row before which its stores are immediate."""
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
                    stop = at[k] if k < len(at) else n
                else:
                    stop = first[c]
                cut.append(stop)
                if last[c] >= stop:
                    at.append(pos[c])
                    who.append(writer[c])
        return np.array(cut, dtype=np.int64)

    # -- queries (keys in, keys out; -1 for none) -----------------------
    def remote_before(self, bid, proc, key):
        """Newest perform to the block before ``key`` by another writer."""
        return remote_store_before(self.runs, self._blocks[3],
                                   self.stride, bid, proc, key)

    def any_before(self, bid, key) -> np.ndarray:
        """Whether some perform to the block precedes ``key``."""
        bunit, _, _, keys = self._blocks
        if not len(keys):
            return np.zeros(len(bid), dtype=bool)
        k = np.searchsorted(keys, bid * self.stride + key) - 1
        return (k >= 0) & (bunit[np.maximum(k, 0)] == bid)

    def remote_after(self, bid, proc, key):
        """First perform to the block after ``key`` by another writer
        (the caller knows there is one)."""
        runs = self.runs
        k = np.searchsorted(self._blocks[3], bid * self.stride + key, "right")
        mine = np.flatnonzero(runs.proc[k] == proc)
        if len(mine):
            k[mine] = _next_run(runs)[k[mine]]
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


def sd_kernel(ctx: KernelContext, block_map, *, trace_name: str,
              stats: Optional[Dict] = None) -> ProtocolResult:
    """SD (send-delayed stores) over one batch: OTF's rule over performs.

    Reads ``ctx``'s release table.  A row misses iff it opens its group
    or another writer performed to the block since the group's previous
    access; every copy lost is dropped by such a perform, so
    ``invalidations_sent == invalidations_applied``, and a group's last
    lifetime is dropped iff another writer performs to the block after
    its last access, the end-of-trace flushes included.
    """
    hb = _Heartbeat(ctx.n, stats)
    view = ctx.block_view(block_map.offset_bits)
    pf = _Performs(ctx, view, hb, acquires=False)
    order, newg, _, _ = view.groups()
    key = pf.row_key[order]
    proc, bid = ctx.proc[order], view.bid[order]
    newest = pf.remote_before(bid, proc, key)
    miss = newg.copy()
    miss[1:] |= newest[1:] > key[:-1]
    hb.phase()
    life = pf.classify(view, miss, hb)
    last = np.flatnonzero(np.append(newg[1:], True)) if ctx.n else newg
    live = int((pf.remote_before(bid[last], proc[last], pf.stride - 1)
                < key[last]).sum())
    fetches = len(life[1])
    counters = pf.counters(fetches=fetches,
                           invalidations_applied=fetches - live,
                           invalidations_sent=fetches - live)
    hb.finish()
    return _result("SD", ctx, block_map, trace_name, life, counters)


def srd_kernel(ctx: KernelContext, block_map, *, trace_name: str,
               stats: Optional[Dict] = None) -> ProtocolResult:
    """SRD (send- and receive-delayed) over one batch: RD's rule over
    performs.

    Reads ``ctx``'s acquire and release tables.  A copy that another
    writer's perform made stale is dropped at its processor's next
    acquire, or refetched at its processor's next store to the block
    (an ownership miss), whichever comes first.
    """
    hb = _Heartbeat(ctx.n, stats)
    view = ctx.block_view(block_map.offset_bits)
    pf = _Performs(ctx, view, hb, acquires=True)
    stride = pf.stride
    akeys = ctx.acq_proc * stride + pf.acq_key
    akeys.sort()

    def latest_acquire(proc, key):
        """Key of ``proc``'s latest acquire before ``key`` (-1 if none)."""
        if not len(akeys):
            return np.full(len(proc), -1, dtype=np.int64)
        j = np.searchsorted(akeys, proc * stride + key) - 1
        ok = j >= 0
        j[~ok] = 0
        ok &= akeys[j] // stride == proc
        return np.where(ok, akeys[j] % stride, -1)

    # As in RD: the value at the processor's latest acquire only changes
    # where it acquired since its previous access to the block.
    order, newg, gid_sorted, _ = view.groups()
    key = pf.row_key[order]
    proc, bid = ctx.proc[order], view.bid[order]
    acq = latest_acquire(proc, key)
    epoch = newg.copy()
    np.logical_or(epoch[1:], acq[1:] != acq[:-1], out=epoch[1:])
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
        fbid, fproc, latest_acquire(fproc, stride - 1)) > fkey)
    live = int(last.sum() - dropped.sum())

    # Each lifetime holds its copy over keys (fetch, end): end is the
    # refetch of an ownership miss, the dropping acquire (the first one
    # after the first other writer's perform since the fetch), or past
    # the end-of-trace flushes.
    end = np.full(len(fetch), stride - 1, dtype=np.int64)
    own_next = np.append(own[1:], False) if len(fetch) else own
    end[own_next] = pf.row_key[np.append(fetch[1:], 0)[own_next]]
    need = np.flatnonzero((~last & ~own_next) | dropped)
    if len(need):
        q = fproc[need]
        first = pf.remote_after(fbid[need], q, fkey[need])
        end[need] = akeys[np.searchsorted(akeys, q * stride + first,
                                          "right")] % stride
    sent = int(pf.remote_between(fbid, fproc, fkey, end).sum())
    counters = pf.counters(fetches=len(fetch),
                           invalidations_applied=len(fetch) - live,
                           invalidations_sent=sent,
                           ownership_misses=int(own.sum()))
    hb.finish()
    return _result("SRD", ctx, block_map, trace_name, life, counters)
