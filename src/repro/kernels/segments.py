"""Sort-and-scan primitives shared by the vectorized kernels.

Every kernel question is of the form "what happened most recently in my
block (or word) before me?".  This module answers them with packed
sorts plus O(n) passes instead of per-event state machines:

* :func:`pack_order` — rows ordered by ``(key, row)``.  Packing the row
  index into the sort key makes every value unique, so an *unstable*
  sort is exact, and for the narrow key ranges synthetic traces use the
  packed array fits ``uint32`` — roughly 10x faster than a stable
  int64 argsort;
* :func:`prev_same_index` — previous occurrence of each row's key;
* :func:`store_runs` / :func:`last_store_tables` — the store
  subsequence of a unit-sorted order and per-row last / last-remote
  store positions (the two-top trick: within a unit, tracking the
  newest store and the newest store by a different processor answers
  "newest store by a processor other than me" for every processor);
* :func:`remote_store_before` — the same two-top answer for arbitrary
  (unit, processor, position) queries, e.g. "as of my acquire", "as of
  my lifetime's fetch" or "as of the end" rather than "as of me";
* :func:`essential_chain` — the one sequential dependence the kernels
  have ("am I newer than my group's last flagged row?"), solved as an
  antitone fixpoint in a few whole-array passes.

All positions are row indices into the batch being analysed, held as
``int32`` (value arrays) indexed by ``int64`` orders (NumPy's fast
indexing path).  Because every returned quantity is a *relative order*
between rows of the same unit, running these over any row subset that
keeps whole (unit, processor) histories intact — e.g. a block shard's
rows, or the rows of units that have stores at all — yields results
identical to slicing the full-batch answers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NO_ROW", "pack_order", "prev_same_index", "dense_unique",
           "regroup_monotone", "unit_ids", "store_runs", "event_runs",
           "next_run", "last_store_tables", "run_keys",
           "remote_store_before", "essential_chain"]

#: Sentinel for "no such row" in int32 position arrays.
NO_ROW = np.int32(-1)


def pack_order(key: np.ndarray, key_max: int):
    """``(order, sorted_key)`` with rows ordered by ``(key, row)``.

    ``key_max`` bounds the key values (inclusive); it picks the
    narrowest packing — ``uint32`` when key and index bits fit, else
    ``int64``, else a stable argsort for astronomically wide keys.  The
    sorted keys come back int32 when they fit (cheaper downstream
    gathers and compares), int64 otherwise.
    """
    n = len(key)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    shift = max((n - 1).bit_length(), 1)
    key_max = int(key_max)
    top = (key_max << shift) | (n - 1)
    skey_t = np.int32 if key_max < 1 << 31 else np.int64
    if top < 1 << 32:
        packed = (key.astype(np.uint32) << np.uint32(shift)
                  | np.arange(n, dtype=np.uint32))
        packed.sort()
        order = (packed & np.uint32((1 << shift) - 1)).astype(np.int64)
        skey = (packed >> np.uint32(shift)).astype(skey_t)
    elif top < 1 << 63:
        packed = ((key.astype(np.int64) << np.int64(shift))
                  | np.arange(n, dtype=np.int64))
        packed.sort()
        order = packed & np.int64((1 << shift) - 1)
        skey = (packed >> np.int64(shift)).astype(skey_t, copy=False)
    else:  # pragma: no cover - keys this wide are densified first
        order = np.argsort(key, kind="stable")
        skey = key[order].astype(np.int64)
    return order, skey


def prev_same_index(key: np.ndarray, key_max: int) -> np.ndarray:
    """``prev[i]`` = greatest ``j < i`` with ``key[j] == key[i]``, else -1.

    Adjacency in ``(key, row)`` order is exactly "previous occurrence".
    """
    n = len(key)
    prev = np.full(n, NO_ROW, dtype=np.int32)
    if n > 1:
        order, sk = pack_order(key, key_max)
        same = np.flatnonzero(sk[1:] == sk[:-1]) + 1
        prev[order[same]] = order[same - 1]
    return prev


def dense_unique(values: np.ndarray):
    """``(unique_sorted, dense)`` with ``values == unique_sorted[dense]``."""
    uniq, dense = np.unique(values, return_inverse=True)
    return uniq, dense.reshape(-1).astype(np.int64, copy=False)


def regroup_monotone(dense: np.ndarray, mapped: np.ndarray):
    """Coarser dense ids after collapsing unique values through a
    non-decreasing map.

    ``mapped`` is ``f(unique_sorted)`` for a monotone ``f`` (e.g.
    ``unique_words >> offset_bits`` maps words to blocks): equal mapped
    values are contiguous, so the coarser ids are a change-point cumsum —
    no second comparison sort.  Returns ``(ids_per_row, num_groups)``.
    """
    if len(mapped) == 0:
        return np.empty(0, dtype=np.int64), 0
    change = np.empty(len(mapped), dtype=bool)
    change[0] = True
    np.not_equal(mapped[1:], mapped[:-1], out=change[1:])
    group_of_uniq = np.cumsum(change) - 1
    return group_of_uniq[dense], int(group_of_uniq[-1]) + 1


def unit_ids(values: np.ndarray):
    """Per-row unit ids: ``(ids, num_units, unique_or_None)``.

    Raw values serve directly as ids when their range is modest (the
    synthetic traces use tiny address spaces), keeping the packed sort
    keys narrow for free; sparse or huge ranges densify first, which
    also guarantees the ids fit the int64 packing.
    """
    n = len(values)
    vmax = int(values.max()) + 1 if n else 0
    if vmax <= 4 * n + (1 << 16):
        return values, vmax, None
    uniq, dense = dense_unique(values)
    return dense, len(uniq), uniq


class StoreRuns:
    """The store subsequence of one unit-sorted row order.

    ``row`` / ``unit`` / ``proc`` are each store's batch row, unit id
    and processor; ``other[k]`` is the batch row of the newest store to
    the same unit *by a different processor* strictly before store ``k``
    (-1 if none).
    """

    __slots__ = ("row", "row32", "unit", "proc", "other")

    def __init__(self, row, unit, proc, other):
        self.row = row
        self.row32 = row.astype(np.int32)
        self.unit = unit
        self.proc = proc
        self.other = other


def store_runs(order: np.ndarray, sunit: np.ndarray, st: np.ndarray,
               proc_small: np.ndarray) -> StoreRuns:
    """Extract the store subsequence (see :class:`StoreRuns`).

    ``st`` is the store mask gathered into sorted order; same-processor
    runs break on unit or processor change, and the store preceding a
    run is that run's "other" (two-top) value.
    """
    pos = np.flatnonzero(st)
    row = order[pos]
    return event_runs(row, sunit[pos], proc_small[row])


def event_runs(row: np.ndarray, unit: np.ndarray,
               proc: np.ndarray) -> StoreRuns:
    """A :class:`StoreRuns` over any ``(unit, row)``-sorted subsequence
    of events: ``row`` is whatever time the events are ordered by (a
    batch row, or a finer key that also orders sync events)."""
    m = len(row)
    if m == 0:
        return StoreRuns(row, unit, proc, np.empty(0, dtype=np.int32))
    brk = np.empty(m, dtype=bool)
    brk[0] = True
    brk[1:] = (unit[1:] != unit[:-1]) | (proc[1:] != proc[:-1])
    run_first = np.maximum.accumulate(
        np.where(brk, np.arange(m, dtype=np.int64), 0))
    pi = run_first - 1
    has = pi >= 0
    pis = np.where(has, pi, 0)
    has &= unit[pis] == unit
    other = np.where(has, row[pis], np.int64(-1)).astype(np.int32)
    return StoreRuns(row, unit, proc, other)


def next_run(runs: StoreRuns) -> np.ndarray:
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


def last_store_tables(order: np.ndarray, sunit: np.ndarray,
                      st: np.ndarray, runs: StoreRuns,
                      proc_small: np.ndarray):
    """Per-row last / last-remote store positions, in *sorted* order.

    Returns ``(last, remote)`` (each int32, aligned with ``order``):
    the newest store to the row's unit strictly before it, by any / by
    a different processor.  The newest store before a row is the store
    subsequence entry just before the row's exclusive store count; when
    that store was written by the row's own processor, its two-top
    "other" value is exactly the row's newest remote store.
    """
    n = len(order)
    if len(runs.row) == 0:
        empty = np.full(n, NO_ROW, dtype=np.int32)
        return empty, empty
    j = np.cumsum(st, dtype=np.int64)
    np.subtract(j, st, out=j, casting="unsafe")
    j -= 1
    valid = j >= 0
    js = np.maximum(j, 0, out=j)
    valid &= runs.unit[js] == sunit
    last = np.where(valid, runs.row32[js], NO_ROW)
    remote = np.where(runs.proc[js] != proc_small[order], last,
                      np.where(valid, runs.other[js], NO_ROW))
    return last, remote


def run_keys(runs: StoreRuns, stride: int) -> np.ndarray:
    """Sorted ``unit * stride + row`` search keys of a store subsequence.

    ``stride`` must exceed every row and query position (``n + 1`` for a
    batch of ``n`` rows), so key order is (unit, row) order.
    """
    return runs.unit.astype(np.int64) * stride + runs.row


def remote_store_before(runs: StoreRuns, keys: np.ndarray, stride: int,
                        unit: np.ndarray, proc: np.ndarray,
                        pos: np.ndarray) -> np.ndarray:
    """Newest store to ``unit`` at a row ``< pos`` by a processor other
    than ``proc``, per query (int64 row, -1 if none).

    The newest store before the position is one binary search away; when
    its writer is the querying processor, the two-top ``other`` value is
    the newest store by anyone else.
    """
    k = np.searchsorted(keys, unit * stride + pos) - 1
    ok = k >= 0
    ks = np.where(ok, k, 0)
    if len(keys):
        ok &= runs.unit[ks] == unit
        newest = np.where(runs.proc[ks] != proc, runs.row[ks],
                          runs.other[ks].astype(np.int64))
    else:
        newest = ks
    return np.where(ok, newest, np.int64(-1))


def essential_chain(group: np.ndarray, value: np.ndarray,
                    at: np.ndarray, hb) -> np.ndarray:
    """Flag each item iff its value is newer than its group's last
    flagged predecessor.

    Items come in (group, time) order: ``group`` ids, ``value`` the row
    each item must postdate, ``at`` the item's own (increasing within a
    group) row.  Item i is flagged iff ``value[i] > at[j]`` for j its
    group's last flagged item before it (-1 if none); only items with
    ``value >= 0`` are candidates.  Two recurrences take this shape:

    * the essential flag per miss lifetime (``at`` the fetch, ``value``
      the newest remote store to any word the lifetime touched, as of
      the fetch): a lifetime is essential iff that store postdates the
      fetch of the group's previous essential lifetime;
    * the miss flag per access under MIN, WBWI and RD (``at`` the row,
      ``value`` the newest store that would invalidate the copy): an
      access misses iff that store postdates the group's previous miss.

    Every item's value precedes its own row (``value < at``), so an item
    can be flagged only if its value is newer than every earlier value in
    its group: an earlier item with a value at least as new was either
    flagged (its row then postdates both values) or not (its value is
    then no newer than its own last flagged predecessor).  One running
    max drops the masked items before any iteration.

    The recurrence is solved by iterating ``flags -> (value > F(flags))``
    where ``F(flags)`` is each candidate's last flagged in-group
    predecessor's row, computed as one ``np.maximum.accumulate`` over
    values offset by ``group * big`` (rows increase within a group, so
    the running max *is* the last flagged predecessor, and earlier
    groups' values stay below the current group's offset).  The map is
    antitone and its fixpoint is unique (induction over each group's
    candidates), so iterating from all-flagged converges exactly to the
    sequential chain, in practice within a handful of whole-array
    passes.  ``hb.pulse()`` runs once per pass (a cancellation point).
    """
    flags_out = np.zeros(len(value), dtype=bool)
    if not len(value):
        return flags_out
    stride = max(int(value.max()), 0) + 2
    keyed = group.astype(np.int64) * stride + value
    keyed += 1
    newest = np.empty(len(value), dtype=np.int64)
    newest[0] = -1
    newest[1:] = keyed[:-1]
    np.maximum.accumulate(newest, out=newest)
    cand = np.flatnonzero((value >= 0) & (keyed > newest))
    if not len(cand):
        return flags_out
    g = group[cand].astype(np.int64)
    r = value[cand].astype(np.int64)
    f = at[cand].astype(np.int64)
    big = int(f.max()) + 2
    base = g * big
    flagged_val = base + f + 1
    shifted = np.empty(len(cand), dtype=np.int64)
    flags = np.ones(len(cand), dtype=bool)
    while True:
        hb.pulse()
        vals = np.where(flags, flagged_val, base)
        shifted[0] = -1
        shifted[1:] = vals[:-1]
        F = np.maximum.accumulate(shifted)
        F -= base
        F -= 1
        np.maximum(F, -1, out=F)
        new = r > F
        if np.array_equal(new, flags):
            break
        flags = new
    flags_out[cand] = flags
    return flags_out
