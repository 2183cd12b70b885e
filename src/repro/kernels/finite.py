"""The vectorized finite-cache OTF kernel.

:class:`~repro.protocols.finite.FiniteOTFProtocol` is OTF with a
set-associative LRU cache per processor.  Its kernel is OTF's plus one
compact LRU pass:

* **Misses.**  A row misses iff it is an OTF miss
  (:meth:`_BlockView.miss_sorted`) or its block left its (processor,
  set) LRU through eviction since the group's previous access.  Only the
  second part needs the LRU state.
* **Kills.**  Between two accesses of one (block, processor) group every
  store to the block is remote, so the copy of access i is killed by the
  block's first store after i (:meth:`_BlockView.block_runs` entry
  ``store_counts[i] + is_store[i]``), iff that store comes before the
  group's next access — i.e. iff that access is an OTF miss; after the
  group's last access, any later store kills.
* **The LRU pass.**  One event stream per (processor, set): that
  processor's accesses to the set's blocks and the kills of its copies,
  in time order.  An access whose previous stream event is an access to
  the same block is an MRU hit that changes nothing, and is dropped.  A
  stream with no more distinct blocks than ``ways`` never evicts: its
  misses are OTF's and every kill in it finds the copy resident, so it
  is skipped.  One plain loop runs the rest, with an insertion-ordered
  dict as the LRU and a ``replaced`` set of evicted blocks.  A kill of
  a copy that was already evicted finds nothing to drop and leaves the
  block in ``replaced`` (the simulator drops only held copies), so the
  next miss on it is a replacement miss, not a coherence one.

Lifetimes classify as under OTF (no remote store lands inside a
finite-OTF lifetime either, see :mod:`repro.kernels.protocols`).
Replacement-miss lifetimes stay in ``fetches`` and in the essential
chain, but they are left out of the five-way breakdown and counted in
``replacement_misses``.  ``replacements`` counts evictions (a victim
never touched again is one with no replacement miss), and
``invalidations_applied == invalidations_sent`` the kills that found
their copy resident.

:func:`~repro.kernels.run_kernel_cells` runs finite cells over a plan
by cache set: batches of whole sets (LRU couples blocks only within a
set), at most :data:`~repro.kernels.protocols.BATCH_ROWS` rows each, so
a cell's memory is bounded by its largest set.  A fully associative
cache has one set, and its batch would be the whole trace (several
times the simulator's memory, see EXPERIMENTS.md), so
:func:`~repro.kernels.has_kernel` leaves those cells to the simulator;
the kernel itself is exact for them too.
"""

from __future__ import annotations

import numpy as np

from ..protocols.results import Counters, ProtocolResult
from ..runtime import signals
from .classifiers import KernelContext, _Heartbeat, lifetime_breakdown

__all__ = ["finite_kernel"]


def _lru_pass(group, kill, stream, ways: int, hb: _Heartbeat):
    """Run the compact event streams through per-stream LRU state.

    ``group`` names each event's (block, processor) group — within one
    stream, its block — ``kill`` flags the kills, and ``stream`` changes
    between streams.  Returns ``(replacement events, kills that found
    no copy, evictions)``.
    """
    replacement, missed = [], 0
    evictions = 0
    lru, replaced = {}, set()
    current = None
    step = signals.HEARTBEAT_CHUNK
    for start in range(0, len(group), step):
        hb.pulse()
        for e in range(start, min(start + step, len(group))):
            if stream[e] != current:
                current = stream[e]
                lru, replaced = {}, set()
            g = group[e]
            if kill[e]:
                if g in lru:
                    del lru[g]
                else:
                    missed += 1
            elif g in lru:
                del lru[g]  # re-inserted below as the MRU entry
                lru[g] = None
            else:
                if g in replaced:
                    replaced.discard(g)
                    replacement.append(e)
                if len(lru) >= ways:
                    victim = next(iter(lru))
                    del lru[victim]
                    replaced.add(victim)
                    evictions += 1
                lru[g] = None
    return replacement, missed, evictions


def finite_kernel(ctx: KernelContext, block_map, num_sets: int, ways: int,
                  *, trace_name: str) -> ProtocolResult:
    """Finite-cache OTF over one batch of whole cache sets (the module
    docstring derives the rules)."""
    hb = _Heartbeat(ctx.n)
    n = ctx.n
    view = ctx.block_view(block_map.offset_bits)
    otf_miss = view.miss_sorted()
    order, newg, gid_sorted, _ = view.groups()
    hb.phase()

    # The kill of each access's copy, in group order.
    runs, _ = view.block_runs()
    k = view.store_counts()[order].astype(np.int64) + ctx.store8[order]
    killed = np.ones(n, dtype=bool)
    killed[:-1] = otf_miss[1:]
    killed &= k < len(runs.row)
    k[~killed] = 0
    killed[killed] = runs.unit[k[killed]] == view.bid[order[killed]]
    kills = int(killed.sum())

    # Streams of more distinct blocks (groups) than ways: the only ones
    # that can evict.
    replacement = np.zeros(n, dtype=bool)
    missed = evictions = 0
    first = np.flatnonzero(newg)
    key = ((ctx.addr[order[first]] >> block_map.offset_bits) % num_sets
           + ctx.proc[order[first]] * num_sets)
    _, stream_of, size = np.unique(key, return_inverse=True,
                                   return_counts=True)
    stream_of = stream_of.reshape(-1).astype(np.int64)
    hot = (size > ways)[stream_of]
    hb.phase()
    if hot.any():
        pos = np.flatnonzero(hot[gid_sorted])
        kpos = pos[killed[pos]]
        at = np.append(pos, kpos)
        time = np.append(order[pos], runs.row[k[kpos]])
        group = gid_sorted[at].astype(np.int64)
        is_kill = np.arange(len(at)) >= len(pos)
        ev = np.argsort(stream_of[group] * (n + 1) + time)
        at, group, is_kill = at[ev], group[ev], is_kill[ev]
        # Drop the MRU hits: accesses right after an access to the same
        # block in their stream.
        keep = np.ones(len(at), dtype=bool)
        keep[1:] = ((group[1:] != group[:-1]) | is_kill[1:]
                    | is_kill[:-1])
        at, group, is_kill = at[keep], group[keep], is_kill[keep]
        hb.phase()
        rep, missed, evictions = _lru_pass(
            group.tolist(), is_kill.tolist(),
            stream_of[group].tolist(), ways, hb)
        replacement[at[rep]] = True
    hb.phase()

    miss = otf_miss | replacement
    starts, fetch, cold, dirty, ess = view.classify(
        miss, ctx.word_remote_rows()[order], hb)
    rep = replacement[starts]
    keep = ~rep
    invalidations = kills - missed
    result = ProtocolResult(
        protocol="OTF-finite",
        trace_name=trace_name,
        block_bytes=block_map.block_bytes,
        num_procs=ctx.num_procs,
        breakdown=lifetime_breakdown(cold[keep], dirty[keep], ess[keep], n),
        counters=Counters(fetches=len(fetch),
                          invalidations_applied=invalidations,
                          invalidations_sent=invalidations,
                          replacements=evictions),
        replacement_misses=int(rep.sum()),
    )
    hb.finish()
    return result
