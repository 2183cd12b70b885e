"""Interleaving utilities.

The paper (section 2.3, Figure 2) points out that the essential miss rate is
a property of an *interleaved trace*, not of an application: re-interleaving
the same per-processor streams can change the essential miss count.  These
utilities construct alternative legal interleavings of a trace so that
effect can be measured (``benchmarks/bench_figures_1_to_4.py`` and the
interleaving ablation use them).

All functions preserve per-processor program order — only the global order
changes — and are deterministic given their seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..errors import TraceError
from .events import Event
from .trace import Trace


def round_robin(streams: Dict[int, Sequence[Event]], *, quantum: int = 1,
                name: str = "") -> Trace:
    """Interleave per-processor streams round-robin, ``quantum`` events at a time."""
    if quantum <= 0:
        raise TraceError(f"quantum must be positive, got {quantum}")
    if not streams:
        raise TraceError("no streams to interleave")
    iters = {p: list(s) for p, s in streams.items()}
    cursors = {p: 0 for p in iters}
    order = sorted(iters)
    events: List[Event] = []
    live = True
    while live:
        live = False
        for p in order:
            stream = iters[p]
            cur = cursors[p]
            take = stream[cur:cur + quantum]
            if take:
                events.extend(take)
                cursors[p] = cur + len(take)
                live = True
    return Trace(events, num_procs=max(streams) + 1, name=name,
                 validate=False)


def random_interleave(streams: Dict[int, Sequence[Event]], *, seed: int,
                      name: str = "") -> Trace:
    """Random legal interleaving (uniform next-processor choice, seeded)."""
    rng = random.Random(seed)
    pending = {p: list(s) for p, s in streams.items() if s}
    cursors = {p: 0 for p in pending}
    events: List[Event] = []
    while pending:
        p = rng.choice(sorted(pending))
        stream = pending[p]
        events.append(stream[cursors[p]])
        cursors[p] += 1
        if cursors[p] >= len(stream):
            del pending[p]
    return Trace(events, num_procs=max(streams) + 1 if streams else 1,
                 name=name, validate=False)


def reinterleave(trace: Trace, *, seed: int) -> Trace:
    """Randomly re-interleave a trace's per-processor streams.

    .. warning::
       The result preserves program order but **not** synchronization order:
       an acquire may move before its matching release.  Use
       :func:`reinterleave_sync_safe` when the trace contains acquires and
       releases whose pairing must survive.
    """
    return random_interleave(trace.per_processor(), seed=seed,
                             name=f"{trace.name}#reinterleaved")


def reinterleave_sync_safe(trace: Trace, *, seed: int, window: int = 32) -> Trace:
    """Re-interleave within bounded windows, preserving synchronization order.

    Events may move at most ``window`` positions from their original global
    index, and the relative global order of all ACQUIRE/RELEASE events is
    kept fixed; data events never cross a synchronization event of their own
    processor (preserving release-consistency structure).  The result is a
    different but *equivalent* execution in the sense of section 2.3.
    """
    from .events import SYNC_OPS

    rng = random.Random(seed)
    out: List[Event] = []
    chunk: List[Event] = []

    def flush() -> None:
        out.extend(_shuffle_preserving_program_order(chunk, rng)
                   if len(chunk) > 1 else chunk)
        chunk.clear()

    # Shuffle windows of at most ``window`` data events; synchronization
    # events act as interleaving barriers.
    for ev in trace:
        if ev[1] in SYNC_OPS:
            flush()
            out.append(ev)
        else:
            chunk.append(ev)
            if len(chunk) == window:
                flush()
    flush()
    return Trace(out, trace.num_procs, name=f"{trace.name}#sync-safe",
                 meta=trace.meta, validate=False)


def _shuffle_preserving_program_order(chunk: List[Event],
                                      rng: random.Random) -> List[Event]:
    """Shuffle a chunk while keeping each processor's events in order."""
    streams: Dict[int, List[Event]] = {}
    for ev in chunk:
        streams.setdefault(ev[0], []).append(ev)
    # Draw processors with probability proportional to remaining events.
    tokens: List[int] = []
    for p, s in streams.items():
        tokens.extend([p] * len(s))
    rng.shuffle(tokens)
    cursors = {p: 0 for p in streams}
    out = []
    for p in tokens:
        out.append(streams[p][cursors[p]])
        cursors[p] += 1
    return out
