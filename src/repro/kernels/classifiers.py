"""Vectorized classifier kernels over columnar data rows.

Each kernel computes the *same counters* as its streaming oracle
(:class:`~repro.classify.dubois.DuboisClassifier`,
:class:`~repro.classify.eggers.EggersClassifier`,
:class:`~repro.classify.torrellas.TorrellasClassifier`) from a handful of
NumPy sorts and reductions instead of a Python loop per event.  The
reduction is legal because every piece of classifier state is per
(block, processor) or per (word, processor), and every transition
compares *relative positions* of rows within those groups:

* an access misses iff it is the first (block, processor) access or a
  store to the block intervened since the previous one — every store to
  the block between two consecutive accesses by one processor is
  necessarily a *remote* store (the processor's own stores are accesses
  too), so the test is a store-*count* difference along the block's
  time-sorted history, no per-processor provenance needed;
* Dubois' per-word C flags reduce to "newest remote store to the word
  before the access" (own stores *can* be the newest here, so this one
  needs the two-top remote table), folded per miss lifetime with
  ``np.maximum.reduceat`` and resolved against the previous *essential*
  lifetime by an antitone fixpoint iteration (the only sequential
  dependence, solved in a few whole-array passes);
* Eggers' stale-word test reduces to "newest store to the word since
  the previous block access" and Torrellas' word-system to the same
  first-touch/store-since comparisons at word granularity.

Because every comparison is order-only, feeding a kernel any row subset
that keeps whole (block, processor) histories — a block shard, or one
batch of a batch plan — produces exactly the counters the oracle
produces on that subset.  The word-side tables are
additionally restricted to rows of words that are stored at all (the
rest have no last store by construction), a subset of the same kind.
The full legality argument lives in DESIGN.md ("Vectorized kernels").

Heartbeat contract: kernels credit the runtime progress counter with
roughly one tick per row, spread across their phases in slices no larger
than ``HEARTBEAT_CHUNK``, so the supervisor's stall watchdog sees a
slow-but-alive vectorized cell advance exactly like an interpreted one.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

import numpy as np

from ..classify.breakdown import DuboisBreakdown, SimpleBreakdown
from ..runtime import signals
from ..trace.events import ACQUIRE, STORE
from .segments import (
    NO_ROW,
    essential_chain,
    last_store_tables,
    next_run,
    pack_order,
    prev_same_index,
    regroup_monotone,
    run_keys,
    store_runs,
    unit_ids,
)

__all__ = ["KernelContext", "SyncTable", "lifetime_classes",
           "lifetime_breakdown", "dubois_kernel", "dubois_lifetimes",
           "eggers_kernel", "torrellas_kernel"]


class _Heartbeat:
    """Spread one batch's liveness ticks across a kernel's phases.

    The interpreted paths call
    :func:`repro.runtime.signals.note_progress` once per
    ``HEARTBEAT_CHUNK`` events consumed; a kernel consumes the whole
    batch in a few vectorized phases, so it credits the same total (one
    tick per row) in per-phase installments, each split into slices no
    larger than ``HEARTBEAT_CHUNK``.  Every tick is also a cancellation
    point, so graceful shutdown interrupts between phases.
    """

    #: Nominal phase budget; :meth:`finish` credits any remainder, so a
    #: kernel with fewer phases still ticks its full row count.
    PHASES = 8

    def __init__(self, rows: int):
        self.rows = int(rows)
        self._credited = 0
        self._phase_no = 0

    def _tick(self, n: int) -> None:
        step = signals.HEARTBEAT_CHUNK
        while n > 0:
            take = min(n, step)
            signals.note_progress(take)
            n -= take

    def phase(self) -> None:
        """Credit one phase's share of the batch's ticks."""
        self._phase_no += 1
        target = min(self.rows,
                     self.rows * self._phase_no // self.PHASES)
        due = target - self._credited
        self._credited = target
        if due > 0:
            self._tick(due)
        else:
            signals.check_interrupt()

    def pulse(self) -> None:
        """A cancellation point that credits nothing (inner loops)."""
        signals.check_interrupt()

    def finish(self) -> None:
        """Credit whatever the phases have not ticked yet."""
        due = self.rows - self._credited
        self._credited = self.rows
        if due > 0:
            self._tick(due)
        else:
            signals.check_interrupt()


class SyncTable:
    """A trace's acquires and releases, sorted once for every batch.

    ``keys`` holds one search key per sync row, ``lane * end + row``
    with ``lane = 2 * proc + (op - ACQUIRE)`` and ``row`` its trace row,
    sorted: each (processor, kind) lane is a run of trace rows in trace
    order, and ``end`` exceeds every trace row.  A batch asks in trace
    rows, which order its own rows and every sync row together, so "my
    latest acquire before this row" and "my first release after this
    store" are one binary search each and no batch builds, remaps or
    sorts a table of its own.  A sync row before a batch's first row
    can change nothing in it: it has no copy yet, and no store to
    flush.

    The table owns the key layout: callers compare the trace rows it
    returns, and read :attr:`past` where they need a key past every
    row and every end-of-trace flush.
    """

    def __init__(self, keys: np.ndarray, end: int, num_procs: int):
        self.keys = keys
        self.end = int(end)
        #: Past every trace row and every end-of-trace flush
        #: (``end + proc``, see :meth:`first_after`).
        self.past = self.end + int(num_procs)

    @classmethod
    def from_columns(cls, columns, num_procs: int) -> "SyncTable":
        """The table of a whole trace's columns (sync rows included)."""
        rows = np.flatnonzero(columns.op >= ACQUIRE)
        end = len(columns.op)
        lane = columns.proc[rows].astype(np.int64) * 2
        lane += columns.op[rows] - ACQUIRE
        keys = lane * end + rows
        keys.sort()
        return cls(keys, end, num_procs)

    def rows(self, op: int) -> np.ndarray:
        """The trace rows of the table's ``op`` rows, by processor and
        then in trace order."""
        if not len(self.keys):
            return self.keys
        lane, row = np.divmod(self.keys, self.end)
        return row[lane % 2 == op - ACQUIRE]

    def _base(self, op: int, proc) -> np.ndarray:
        """The first key of each query's (processor, ``op``) lane."""
        base = np.asarray(proc, dtype=np.int64) * (2 * self.end)
        if op != ACQUIRE:
            base += self.end
        return base

    def latest(self, op: int, proc, before) -> np.ndarray:
        """Per query, the trace row of ``proc``'s latest ``op`` row
        before trace row ``before`` (at most :attr:`end`); -1 if none."""
        base = self._base(op, proc)
        if not len(self.keys):
            return np.full(len(base), -1, dtype=np.int64)
        k = np.searchsorted(self.keys, base + before) - 1
        found = self.keys[np.maximum(k, 0)]
        return np.where((k >= 0) & (found >= base), found - base, -1)

    def last(self, op: int, proc) -> np.ndarray:
        """Per query, the trace row of ``proc``'s last ``op`` row; -1 if
        none."""
        return self.latest(op, proc, self.end)

    def first_after(self, op: int, proc, after) -> np.ndarray:
        """Per query, the trace row of ``proc``'s first ``op`` row after
        trace row ``after``; ``end + proc`` if none (past every row, in
        processor order: the end-of-trace flushes)."""
        proc = np.asarray(proc, dtype=np.int64)
        base = self._base(op, proc)
        none = self.end + proc
        if not len(self.keys):
            return none
        k = np.searchsorted(self.keys, base + after, "right")
        found = self.keys[np.minimum(k, len(self.keys) - 1)]
        ok = (k < len(self.keys)) & (found < base + self.end)
        return np.where(ok, found - base, none)


class KernelContext:
    """Shared vectorized derivations over one batch of data rows.

    Word-granularity artifacts (the per-word store tables, the previous
    same-(word, processor) access) do not depend on the block size, so
    one context serves every block size of a sweep; per-block-size state
    lives in cached :class:`_BlockView` instances.  Per-row position
    tables are int32 and the large gathers run over int8/int16 value
    arrays — at these sizes the kernels are memory-bound, so narrow
    lanes are most of the speedup after the packed sorts.

    ``rows`` are the batch rows' trace rows (increasing; default: the
    positions themselves) and ``sync`` the trace's :class:`SyncTable`
    (default: none).  Only the RD, MAX, SD and SRD kernels read them;
    the classifiers ignore sync entirely.  Every batch of a trace
    shares its one table and looks its sync rows up by trace row: a
    sync row at trace row ``t`` precedes batch row ``i`` iff ``t <
    rows[i]``, and its *position* — the batch rows before it, so row
    ``i`` follows it iff ``i >= position`` — is ``searchsorted(rows,
    t)``.
    """

    def __init__(self, proc, op, addr, num_procs: int, rows=None,
                 sync: Optional[SyncTable] = None):
        self.proc = np.ascontiguousarray(proc, dtype=np.int64)
        op = np.ascontiguousarray(op, dtype=np.int64)
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        self.store8 = (op == STORE).view(np.int8)
        self.n = len(self.addr)
        self.num_procs = int(num_procs)
        self.proc_small = self.proc.astype(np.int16)
        self._pbits = max(1, (self.num_procs - 1).bit_length())
        self.wid, self.num_words, self.wuniq = unit_ids(self.addr)
        self.rows = (np.arange(self.n) if rows is None
                     else np.asarray(rows, dtype=np.int64))
        if sync is None:  # no sync rows; `end` just past the last row
            sync = SyncTable(np.empty(0, dtype=np.int64),
                             int(self.rows[-1]) + 1 if self.n else 0,
                             self.num_procs)
        self.sync = sync
        self._srows = None
        self._wbase = None
        self._word_runs = None
        self._word_last = None
        self._word_remote = None
        self._word_prev = None
        self._views: Dict[int, "_BlockView"] = {}

    @classmethod
    def from_columns(cls, data, num_procs: int) -> "KernelContext":
        """Build from a data-only :class:`~repro.trace.columnar.TraceColumns`."""
        return cls(data.proc, data.op, data.addr, num_procs)

    # -- word-granularity state (block-size independent) ----------------
    def store_rows(self) -> np.ndarray:
        """Rows that are stores, in time order."""
        if self._srows is None:
            self._srows = np.flatnonzero(self.store8)
        return self._srows

    def _word_base(self):
        """Word-sorted last/remote store tables, pre-scatter.

        Computed over the rows whose word has at least one store when
        that subset is small enough to pay for the indirection (rows of
        never-stored words have no last/remote store by construction —
        whole word histories, hence exact).  Returns ``(g_row, last,
        remote)`` aligned with the (word, time) sort of that subset.
        """
        if self._wbase is None:
            has = np.zeros(self.num_words, dtype=bool)
            has[self.wid[self.store_rows()]] = True
            mask = has[self.wid]
            sel = None
            wid_s, st8 = self.wid, self.store8
            cnt = int(mask.sum())
            if cnt < (3 * self.n) // 4:
                sel = np.flatnonzero(mask)
                wid_s, st8 = self.wid[sel], self.store8[sel]
            order, swid = pack_order(wid_s, self.num_words - 1)
            g_row = order if sel is None else sel[order]
            st = st8[order]
            runs = store_runs(g_row, swid, st, self.proc_small)
            last_s, remote_s = last_store_tables(g_row, swid, st, runs,
                                                 self.proc_small)
            self._wbase = (g_row, last_s, remote_s)
        return self._wbase

    def word_runs(self):
        """``(runs, keys)``: the (word, time)-sorted store subsequence and
        its :func:`~repro.kernels.segments.run_keys`, for word queries
        at positions other than the row itself.  Rebuilt from the word
        order rather than kept by :meth:`_word_base`: only RD asks."""
        if self._word_runs is None:
            g_row = self._word_base()[0]
            runs = store_runs(g_row, self.wid[g_row], self.store8[g_row],
                              self.proc_small)
            self._word_runs = (runs, run_keys(runs, self.n + 1))
        return self._word_runs

    def word_last_rows(self) -> np.ndarray:
        """Newest store to the row's word strictly before it (any proc)."""
        if self._word_last is None:
            g_row, last_s, _ = self._word_base()
            out = np.full(self.n, NO_ROW, dtype=np.int32)
            out[g_row] = last_s
            self._word_last = out
        return self._word_last

    def word_remote_rows(self) -> np.ndarray:
        """Newest store to the row's word before it by another proc."""
        if self._word_remote is None:
            g_row, _, remote_s = self._word_base()
            out = np.full(self.n, NO_ROW, dtype=np.int32)
            out[g_row] = remote_s
            self._word_remote = out
        return self._word_remote

    def word_prev(self) -> np.ndarray:
        """Previous access by the same processor to the same word."""
        if self._word_prev is None:
            key = ((self.wid << self._pbits) | self.proc)
            kmax = (((self.num_words - 1) << self._pbits)
                    | (self.num_procs - 1))
            self._word_prev = prev_same_index(key, kmax)
        return self._word_prev

    # -- per-block-size state -------------------------------------------
    def block_view(self, offset_bits: int) -> "_BlockView":
        if offset_bits not in self._views:
            self._views[offset_bits] = _BlockView(self, offset_bits)
        return self._views[offset_bits]

    def drop_block_view(self, offset_bits: int) -> None:
        """Forget the view at one block size (its arrays are freed)."""
        self._views.pop(offset_bits, None)


class _BlockView:
    """Block-granularity state of one context at one block size.

    Raw word ids shift straight to block ids; densified ids collapse
    through the sorted uniques (monotone, so no second comparison
    sort).  The (block, processor) grouping is one packed sort yielding
    the group starts and the sorted order the folds run over; rows of a
    group being *adjacent* there, "my group's previous row" is a
    one-slot shift, so nothing is gathered through a prev-index table.
    """

    def __init__(self, ctx: KernelContext, offset_bits: int):
        # Weak: the context owns its views, so a strong back-reference
        # would be a cycle keeping every derived array alive until the
        # next cyclic collection instead of until the context is dropped.
        self._ctx = weakref.ref(ctx)
        self.offset_bits = offset_bits
        if ctx.wuniq is None:
            self.bid = ctx.wid >> offset_bits
            self.num_blocks = ((ctx.num_words - 1) >> offset_bits) + 1 \
                if ctx.n else 0
        else:
            self.bid, self.num_blocks = regroup_monotone(
                ctx.wid, ctx.wuniq >> offset_bits)
        self._bsorted = None
        self._counts = None
        self._offsets = None
        self._runs = None
        self._groups = None
        self._prev_sorted = None
        self._miss = None
        self._life = None
        self._memo = {}

    @property
    def ctx(self) -> KernelContext:
        return self._ctx()

    def memo(self, key, build):
        """``build()``, made once per view and kept under ``key``: the
        derived state other modules own (the protocol kernels' sync
        lookups and perform resolution) lives exactly as long as the
        view."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _block_sorted(self):
        """Rows in (block, time) order: ``(order, sorted_bid, store)``."""
        if self._bsorted is None:
            order, sbid = pack_order(self.bid, self.num_blocks - 1)
            self._bsorted = (order, sbid, self.ctx.store8[order])
        return self._bsorted

    def store_counts(self) -> np.ndarray:
        """Exclusive running store count along each block's history.

        ``counts[i]`` is the number of stores in blocks sorted before
        i's block plus those to i's block strictly before i.
        Differences between rows of the same block cancel the per-block
        offset (the number of stores to the block between two of its
        rows), and the count is an index into :meth:`block_runs`.
        """
        if self._counts is None:
            order, _, st = self._block_sorted()
            t = np.cumsum(st, dtype=np.int32)
            np.subtract(t, st, out=t, casting="unsafe")
            out = np.empty(self.ctx.n, dtype=np.int32)
            out[order] = t
            self._counts = out
        return self._counts

    def block_offsets(self) -> np.ndarray:
        """Per block, the :meth:`store_counts` value of its first row:
        a row's count less its block's offset is the number of stores
        to its block before it."""
        if self._offsets is None:
            order, sbid, _ = self._block_sorted()
            offsets = np.zeros(self.num_blocks, dtype=np.int32)
            if len(sbid):
                first = np.flatnonzero(np.append(True, sbid[1:] != sbid[:-1]))
                offsets[sbid[first]] = self.store_counts()[order[first]]
            self._offsets = offsets
        return self._offsets

    def block_runs(self):
        """``(runs, keys)``: the (block, time)-sorted store subsequence
        (:class:`~repro.kernels.segments.StoreRuns`) and its search keys.

        Store ``k`` of the subsequence is the one whose exclusive
        :meth:`store_counts` value is ``k``, so "the newest store to my
        block before me" is ``counts[i] - 1`` (when that store's unit is
        my block) without any search.
        """
        if self._runs is None:
            order, sbid, st = self._block_sorted()
            runs = store_runs(order, sbid, st, self.ctx.proc_small)
            self._runs = (runs, run_keys(runs, self.ctx.n + 1))
        return self._runs

    def first_remote_store(self, at: np.ndarray) -> np.ndarray:
        """Per row of ``at``, the first store to its block by another
        processor after it (int64 row; -1 if none): the store that ends
        a copy fetched there.  When the first store after the row is
        the row's processor's own, the next same-writer run's first
        store is the first remote one."""
        runs, _ = self.block_runs()
        # Each ends in a sentinel store past the last one, in no block.
        unit, proc, row = (np.append(a, -1)
                           for a in (runs.unit, runs.proc, runs.row))
        bid = self.bid[at]
        k = self.store_counts()[at].astype(np.int64) + self.ctx.store8[at]
        mine = np.flatnonzero((unit[k] == bid)
                              & (proc[k] == self.ctx.proc[at]))
        k[mine] = next_run(runs)[k[mine]]
        return np.where(unit[k] == bid, row[k], -1)

    def groups(self):
        """``(order, new_group, gid_sorted, num_groups)``.

        ``new_group`` and ``gid_sorted`` align with ``order`` (the
        (block, processor, time) sort), not with batch rows — the
        kernels consume them in place and sum, so nothing is ever
        scattered back to row order.
        """
        if self._groups is None:
            ctx = self.ctx
            n = ctx.n
            if n:
                key = (self.bid << ctx._pbits) | ctx.proc
                kmax = (((self.num_blocks - 1) << ctx._pbits)
                        | (ctx.num_procs - 1))
                order, sk = pack_order(key, kmax)
                newg = np.empty(n, dtype=bool)
                newg[0] = True
                np.not_equal(sk[1:], sk[:-1], out=newg[1:])
                gid_sorted = np.cumsum(newg, dtype=np.int32)
                gid_sorted -= 1
                num_groups = int(gid_sorted[-1]) + 1
            else:
                order = np.empty(0, dtype=np.int64)
                newg = np.empty(0, dtype=bool)
                gid_sorted = np.empty(0, dtype=np.int32)
                num_groups = 0
            self._groups = (order, newg, gid_sorted, num_groups)
        return self._groups

    def prev_sorted(self) -> np.ndarray:
        """Previous same-(block, processor) row, aligned with the group
        order (-1 at group starts) — only the word-versus-block-history
        comparisons need the actual row number."""
        if self._prev_sorted is None:
            order, newg, _, _ = self.groups()
            n = len(order)
            shifted = np.empty(n, dtype=np.int64)
            if n:
                shifted[0] = -1
                shifted[1:] = order[:-1]
            self._prev_sorted = np.where(newg, np.int64(-1), shifted)
        return self._prev_sorted

    def miss_sorted(self) -> np.ndarray:
        """Miss flags aligned with the (block, processor, time) order.

        A row misses iff it is its group's first or any store to the
        block (necessarily remote) lands between it and the group's
        previous row.  Group rows are adjacent in group order, so the
        store-count difference is a one-slot shift — excluding the
        previous row itself when it is a store.
        """
        if self._miss is None:
            counts = self.store_counts()
            order, newg, _, _ = self.groups()
            n = len(order)
            if not n:
                self._miss = np.empty(0, dtype=bool)
                return self._miss
            tg = counts[order]
            st_g = self.ctx.store8[order]
            between = np.empty(n, dtype=np.int32)
            between[0] = 0
            np.subtract(tg[1:], tg[:-1], out=between[1:])
            np.subtract(between[1:], st_g[:-1], out=between[1:],
                        casting="unsafe")
            self._miss = newg | (between > 0)
        return self._miss

    def lifetimes(self, hb: _Heartbeat):
        """The OTF miss lifetimes, shared by Dubois and OTF: see
        :meth:`classify`.

        Under OTF no remote store lands inside a lifetime, so the newest
        remote store to each accessed word before the access is the one
        as of the fetch.
        """
        if self._life is None:
            rww = self.ctx.word_remote_rows()
            hb.phase()
            order, _, _, _ = self.groups()
            hb.phase()
            miss = self.miss_sorted()
            hb.phase()
            self._life = self.classify(miss, rww[order], hb)
        return self._life

    def classify(self, miss: np.ndarray, newest: np.ndarray,
                 hb: _Heartbeat, time: Optional[np.ndarray] = None):
        """Per-miss-lifetime facts for one schedule's miss set.

        ``miss`` flags, in (block, processor, time) order, the accesses
        that fetch the block; ``newest`` gives, in the same order, the
        newest store to the accessed word by another processor *as of
        the lifetime's fetch* (the tracker's fetch snapshot: stores
        after the fetch are not in the cached copy).  Returns
        ``(starts, fetch_row, cold, dirty, essential)`` — one entry per
        lifetime, in (group, time) order, ``starts`` its position in the
        group order:

        * ``fetch_row`` — the row whose access fetched the block;
        * ``cold`` — the lifetime is its (block, processor)'s first;
        * ``dirty`` — some store to the block precedes the fetch (for a
          cold lifetime every such store is remote, so this is the
          tracker's "fetched values new to the processor");
        * ``essential`` — some access of the lifetime touched a word
          whose newest remote store postdates the processor's previous
          essential lifetime on the block (the paper's C-flag test).

        ``newest`` holds rows, or, with ``time`` (an increasing per-row
        key), keys on that scale.
        """
        order, newg, gid_sorted, _ = self.groups()
        starts = np.flatnonzero(miss)
        fetch = order[starts]
        if len(starts):
            maxr = np.maximum.reduceat(newest, starts)
        else:
            maxr = np.empty(0, dtype=np.int32)
        cold = newg[starts]
        dirty = (self.store_counts()[fetch]
                 > self.block_offsets()[self.bid[fetch]])
        hb.phase()
        ess = essential_chain(gid_sorted[starts], maxr,
                              fetch if time is None else time[fetch], hb)
        return starts, fetch, cold, dirty, ess


#: Class codes 0-4 (PC, CTS, CFS, PTS, PFS) by ``4 * cold + 2 * essential
#: + dirty``: the tracker's ``_classify``, in MissClass order.
_CLASS_CODE = np.array([4, 4, 3, 3, 0, 2, 1, 1], dtype=np.int8)


def lifetime_classes(cold: np.ndarray, dirty: np.ndarray,
                     ess: np.ndarray) -> np.ndarray:
    """Each classified lifetime's class code (:data:`_CLASS_CODE`)."""
    return _CLASS_CODE[4 * cold + 2 * ess + dirty]


def lifetime_breakdown(cold: np.ndarray, dirty: np.ndarray,
                       ess: np.ndarray, data_refs: int) -> DuboisBreakdown:
    """The five-way breakdown of classified lifetimes: their
    :func:`lifetime_classes`, counted."""
    counts = np.bincount(lifetime_classes(cold, dirty, ess), minlength=5)
    return DuboisBreakdown(*counts.tolist(), data_refs=data_refs)


def dubois_kernel(ctx: KernelContext, block_map) -> DuboisBreakdown:
    """Dubois et al.'s five-way classification, vectorized.

    Bit-identical to feeding the batch's rows through
    :class:`~repro.classify.dubois.DuboisClassifier` (``data_refs`` is
    the batch's row count).
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    _, _, cold, dirty, ess = view.lifetimes(hb)
    result = lifetime_breakdown(cold, dirty, ess, ctx.n)
    hb.finish()
    return result


#: Added to the end key of a lifetime live at the end: past every store's.
_LIVE = np.int64(1) << 62


def dubois_lifetimes(ctx: KernelContext, block_map):
    """Dubois et al.'s miss lifetimes of one batch: ``(fetch, code,
    key)``, one entry per lifetime in (block, processor, time) order.

    ``fetch`` is the batch row whose access missed, ``code`` the
    lifetime's :func:`lifetime_classes` code (what :func:`dubois_kernel`
    counts), and ``key`` orders lifetimes as the streaming classifier
    ends them, across the batches of one trace: ``r * num_procs +
    proc`` for a lifetime that another processor's store at trace row
    ``r`` ends; for one live at the end, :data:`_LIVE` plus the same
    with ``r`` the first trace row touching its block.
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    _, fetch, cold, dirty, ess = view.lifetimes(hb)
    code = lifetime_classes(cold, dirty, ess)
    end = view.first_remote_store(fetch)
    live = end < 0
    order, sbid, _ = view._block_sorted()
    head = np.flatnonzero(np.diff(sbid, prepend=-1))  # each block's first
    end[live] = order[head[np.searchsorted(sbid[head],
                                           view.bid[fetch[live]])]]
    key = ctx.rows[end] * ctx.num_procs + ctx.proc[fetch]
    key[live] += _LIVE
    hb.finish()
    return fetch, code, key


def eggers_kernel(ctx: KernelContext, block_map) -> SimpleBreakdown:
    """Eggers & Katz's cold/true/false split, vectorized.

    An invalidation miss is true sharing iff some store to the missing
    word postdates the processor's previous access to the block: the
    oracle's per-word stale bits are reset (inclusively) by the first
    remote store after that access and OR-accumulated by later ones, and
    every store in that window is remote — the processor itself has no
    accesses there — so "newest store to the word > previous block
    access" is exactly the stale-bit test.
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    lastw = ctx.word_last_rows()
    hb.phase()
    order, newg, _, _ = view.groups()
    hb.phase()
    miss = view.miss_sorted()
    hb.phase()
    prev_g = view.prev_sorted()
    hb.phase()
    inval = miss & ~newg
    tsm = inval & (lastw[order] > prev_g)
    result = SimpleBreakdown(
        cold=int(newg.sum()),
        true_sharing=int(tsm.sum()),
        false_sharing=int((inval & ~tsm).sum()),
        data_refs=ctx.n,
    )
    hb.finish()
    return result


def torrellas_kernel(ctx: KernelContext, block_map) -> SimpleBreakdown:
    """Torrellas et al.'s split, vectorized.

    Runs the miss test at both granularities: a block miss is cold when
    the word was never referenced by the processor, true sharing when
    the word system also misses (first word touch or a word store since
    the previous same-word access — necessarily remote, the processor's
    own word stores being word accesses), false sharing otherwise.
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    lastw = ctx.word_last_rows()
    hb.phase()
    wprev = ctx.word_prev()
    hb.phase()
    order, _, _, _ = view.groups()
    hb.phase()
    bm = view.miss_sorted()
    hb.phase()
    wprev_g = wprev[order]
    ft = wprev_g == NO_ROW
    wm = ft | (lastw[order] > wprev_g)
    warm = bm & ~ft
    result = SimpleBreakdown(
        cold=int((bm & ft).sum()),
        true_sharing=int((warm & wm).sum()),
        false_sharing=int((warm & ~wm).sum()),
        data_refs=ctx.n,
    )
    hb.finish()
    return result
