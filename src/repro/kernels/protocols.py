"""Vectorized protocol kernels.

Four infinite-cache protocols have a kernel: OTF, MIN, WBWI and RD.  All
four perform a store when it is issued, so processor q's copy of block b
changes only on q's own accesses and acquires and on stores to b by
other processors: every (block, processor) stream is independent, and
each kernel reduces its protocol to one per-row number and the shared
lifetime classification of :meth:`_BlockView.classify`.

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

Lifetimes.  Each miss opens a lifetime that lasts until the group's next
miss; lifetimes classify exactly as in the tracker's fetch-snapshot
semantics (:mod:`repro.protocols.lifetime`) once each access is paired
with the newest remote store to its word *as of the lifetime's fetch*.
Under OTF, MIN and WBWI no remote store to an accessed word can land
inside a lifetime (it would have invalidated the copy or the word), so
that is ``word_remote_rows`` itself; RD reads stale copies, so its
accesses past a remote store look the word up as of the fetch.

Counters follow in closed form from the miss set and the store and
acquire tables:

* ``fetches`` — one per lifetime; ``invalidations_applied`` — every
  lifetime but the ones alive at the end of the batch (MIN and WBWI never
  drop a copy without refetching it at once, so only each group's first
  lifetime is not preceded by a drop; under OTF and RD a group's last
  lifetime is dropped iff a remote store, resp. an acquire after one,
  follows its fetch);
* ``invalidations_sent`` (OTF, RD) and ``word_invalidations`` (MIN,
  WBWI) — one per store per *other* processor holding a copy, i.e. the
  sum over lifetimes of the stores to the block while the lifetime is
  alive, less one per store for the writer's own;
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

from typing import Dict, Optional

import numpy as np

from ..mem.addresses import BlockMap, PAPER_BLOCK_SIZES
from ..protocols.results import Counters, ProtocolResult, merge_shard_results
from ..trace.events import ACQUIRE
from .classifiers import KernelContext, _Heartbeat, lifetime_breakdown
from .segments import essential_chain, remote_store_before

__all__ = ["BATCH_ROWS", "run_protocol_kernel", "otf_kernel", "min_kernel",
           "wbwi_kernel", "rd_kernel"]

#: Data rows per kernel batch.  A batch is a set of whole blocks; a
#: single block with more rows than this is a batch of its own.
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


def _block_batches(addr: np.ndarray, offset_bits: int, select: np.ndarray):
    """Time-ordered row-index arrays of whole-block batches, a block
    being ``2**offset_bits`` words.

    The rows of ``addr`` picked by ``select`` are ordered by (block, row)
    through one in-place sort of packed ``block << shift | row`` keys,
    then cut greedily at block boundaries into batches of at most
    :data:`BATCH_ROWS` rows (a single larger block is a batch of its
    own).  While the batches run, only the sorted row order is kept —
    4 bytes a row, the one trace-sized array.
    """
    n = len(addr)
    count = int(np.count_nonzero(select))
    if not count:
        return
    shift = max((n - 1).bit_length(), 1)
    packed = addr >> offset_bits
    packed[~select] = 0  # unselected rows (e.g. sync) carry no block
    if int(packed.max()) >= 1 << (62 - shift):  # pragma: no cover - sparse
        packed = np.unique(packed, return_inverse=True)[1].reshape(-1)
    packed <<= shift
    for lo in range(0, n, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, n)
        packed[lo:hi] |= np.arange(lo, hi)
    packed[~select] = np.iinfo(np.int64).max  # sorts past every row
    packed.sort()
    order = np.empty(count, dtype=np.int32 if n < 1 << 31 else np.int64)
    row_mask = np.int64((1 << shift) - 1)
    ends = [np.array([count])]
    for lo in range(0, count, _SCAN_ROWS):
        hi = min(lo + _SCAN_ROWS, count)
        order[lo:hi] = packed[lo:hi] & row_mask
        blocks = packed[lo:hi + 1] >> shift
        ends.append(np.flatnonzero(blocks[1:] != blocks[:-1]) + lo + 1)
    del packed
    ends = np.unique(np.concatenate(ends))  # slice overlaps repeat one
    start = 0
    while start < count:
        stop = int(ends[np.searchsorted(ends, start + BATCH_ROWS,
                                        "right") - 1])
        if stop <= start:  # one block larger than a batch
            stop = int(ends[np.searchsorted(ends, start, "right")])
        yield np.sort(order[start:stop]).astype(np.int64)
        start = stop


def _batch_contexts(columns, num_procs: int, unit_bits: int,
                    select: np.ndarray):
    """One :class:`KernelContext` per batch of whole ``2**unit_bits``-word
    units of the selected rows, in order, each carrying every acquire of
    the trace remapped to its own rows (a batch row follows an acquire
    iff its trace row does)."""
    acquired = np.flatnonzero(columns.op == ACQUIRE)
    acq_proc = columns.proc[acquired]
    for rows in _block_batches(columns.addr, unit_bits, select):
        apos = np.searchsorted(rows, acquired)
        # An acquire before every row of the batch has nothing to apply.
        live = apos > 0
        yield KernelContext(columns.proc[rows], columns.op[rows],
                            columns.addr[rows], num_procs,
                            (acq_proc[live], apos[live]))


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
        if select is None:
            select = columns.data_mask()
        batches = _batch_contexts(columns, num_procs, unit_bits, select)
        if contexts is not None:
            batches = contexts[unit_bits] = list(batches)
    parts = [kernel(ctx, block_map, trace_name=trace_name, stats=stats)
             for ctx in batches]
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        parts.append(kernel(KernelContext(empty, empty, empty, num_procs),
                            block_map, trace_name=trace_name, stats=stats))
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
    at = np.where(miss, np.arange(n), 0)
    fetch_of = order[np.maximum.accumulate(at)] if n else at
    newest = ctx.word_remote_rows()[order].astype(np.int64)
    stale = np.flatnonzero(newest > fetch_of)
    if len(stale):
        wruns, wkeys = ctx.word_runs()
        srow = order[stale]
        newest[stale] = remote_store_before(
            wruns, wkeys, stride, ctx.wid[srow], ctx.proc[srow],
            fetch_of[stale])
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

