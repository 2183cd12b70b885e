"""Finite-cache extension (paper section 8.0, "future work").

"The current classification is applicable to infinite caches only.
However, it can easily be extended to finite caches by introducing
replacement misses.  A replacement miss is an essential miss since the
value is needed to execute the program.  Coherence misses can then be
classified into PFS and PTS misses according to the algorithm in this
paper.  We expect that the fraction of essential misses will increase in
systems with finite caches."

:class:`FiniteOTFProtocol` is an OTF write-invalidate simulator with a
set-associative LRU cache of ``capacity_blocks`` blocks per processor,
organised as ``num_sets × ways`` (a block maps to set ``block %
num_sets``).  The default ``ways=None`` means fully associative — one set
holding ``capacity_blocks`` ways, the degenerate case and the original
behavior of this module.  A re-fetch of a block lost to replacement is a
*replacement miss*; all other misses classify exactly as in the
infinite-cache protocols.  The ``bench_finite_cache.py`` benchmark
verifies the paper's expectation: the essential fraction of the miss rate
grows as capacity shrinks.

Because LRU couples blocks only *within* a set, and OTF ignores sync
events, disjoint groups of sets run independently: the vectorized kernel
batches a run ``num_sets > 1`` by cache set
(:func:`~repro.kernels.run_finite_kernel`).
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import List, Optional, Tuple

from ..errors import ConfigError
from ..mem.addresses import BlockMap
from .base import Protocol
from .results import ProtocolResult
from ..trace.trace import Trace


def cache_geometry(capacity_blocks: int,
                   ways: Optional[int] = None) -> Tuple[int, int]:
    """Validate a cache shape and return ``(num_sets, ways)``.

    ``ways=None`` (fully associative) resolves to ``ways ==
    capacity_blocks`` and hence one set.  ``ways`` must divide
    ``capacity_blocks`` evenly — a ragged last set would make the set
    index data-dependent.
    """
    if capacity_blocks <= 0:
        raise ConfigError(
            f"capacity_blocks must be positive, got {capacity_blocks}")
    if ways is None:
        ways = capacity_blocks
    if ways <= 0:
        raise ConfigError(f"ways must be positive, got {ways}")
    if ways > capacity_blocks:
        raise ConfigError(
            f"ways ({ways}) cannot exceed capacity_blocks "
            f"({capacity_blocks})")
    if capacity_blocks % ways:
        raise ConfigError(
            f"ways ({ways}) must divide capacity_blocks "
            f"({capacity_blocks}) evenly")
    return capacity_blocks // ways, ways


def finite_spec(capacity_blocks: int, ways: Optional[int] = None) -> str:
    """JSON-safe cell spec for a finite-cache shape, e.g. ``c128w4``.

    Fully-associative shapes (``ways`` omitted or equal to capacity)
    canonicalize to ``c<capacity>`` so equal geometries get equal specs.
    """
    num_sets, ways = cache_geometry(capacity_blocks, ways)
    if num_sets == 1:
        return f"c{capacity_blocks}"
    return f"c{capacity_blocks}w{ways}"


def parse_finite_spec(spec: str) -> Tuple[int, Optional[int]]:
    """Invert :func:`finite_spec`: ``"c128w4"`` → ``(128, 4)``."""
    m = re.fullmatch(r"c(\d+)(?:w(\d+))?", spec)
    if not m:
        raise ConfigError(
            f"malformed finite-cache spec {spec!r} "
            f"(expected c<capacity>[w<ways>])")
    capacity = int(m.group(1))
    ways = int(m.group(2)) if m.group(2) else None
    cache_geometry(capacity, ways)  # validate the shape early
    return capacity, ways


class FiniteOTFProtocol(Protocol):
    """Write-invalidate with finite set-associative LRU caches.

    Not part of :data:`~repro.protocols.base.PROTOCOL_REGISTRY` because it
    takes extra geometry arguments; construct it directly or run it via a
    ``("finite", block_bytes, spec)`` sweep-engine cell.
    """

    name = "OTF-finite"

    def __init__(self, num_procs: int, block_map: BlockMap,
                 capacity_blocks: int, ways: Optional[int] = None):
        super().__init__(num_procs, block_map)
        self.num_sets, self.ways = cache_geometry(capacity_blocks, ways)
        self.capacity_blocks = capacity_blocks
        # Per-(processor, set) LRU: block -> None, most recently used last.
        self._lru: List[List[OrderedDict]] = [
            [OrderedDict() for _ in range(self.num_sets)]
            for _ in range(num_procs)]
        # Blocks each processor lost to replacement (pending re-fetch),
        # tracked per set so set shards never observe another set's state.
        self._replaced: List[List[set]] = [
            [set() for _ in range(self.num_sets)] for _ in range(num_procs)]

    # ------------------------------------------------------------------
    def _touch(self, proc: int, block: int) -> None:
        self._lru[proc][block % self.num_sets].move_to_end(block)

    def _fetch_finite(self, proc: int, block: int) -> None:
        replaced = self._replaced[proc][block % self.num_sets]
        was_replaced = block in replaced
        if was_replaced:
            replaced.discard(block)
        lru = self._lru[proc][block % self.num_sets]
        if len(lru) >= self.ways:
            victim, _ = lru.popitem(last=False)
            # Evicting classifies the victim's lifetime normally; the
            # *next* fetch of the victim (if any) is the replacement miss.
            bit = 1 << proc
            self.valid[victim] = self.valid.get(victim, 0) & ~bit
            self.tracker.invalidate(proc, victim)
            replaced.add(victim)
            self.counters.replacements += 1
        lru[block] = None
        self.valid[block] = self.valid.get(block, 0) | (1 << proc)
        self.tracker.fetch(proc, block, replacement=was_replaced)
        self.counters.fetches += 1

    def _drop_remote(self, proc: int, block: int) -> None:
        """Invalidate ``proc``'s copy from a remote store."""
        bit = 1 << proc
        self.valid[block] = self.valid.get(block, 0) & ~bit
        self.tracker.invalidate(proc, block)
        self._lru[proc][block % self.num_sets].pop(block, None)
        # An invalidated copy is not a replacement victim: its next miss is
        # a coherence miss.
        self._replaced[proc][block % self.num_sets].discard(block)
        self.counters.invalidations_applied += 1

    # ------------------------------------------------------------------
    def on_load(self, proc: int, addr: int) -> None:
        block = self.block_map.block_of(addr)
        if self.has_copy(proc, block):
            self._touch(proc, block)
        else:
            self._fetch_finite(proc, block)
        self.tracker.access(proc, addr)

    def on_store(self, proc: int, addr: int) -> None:
        block = self.block_map.block_of(addr)
        if self.has_copy(proc, block):
            self._touch(proc, block)
        else:
            self._fetch_finite(proc, block)
        self.tracker.access(proc, addr)
        for q in self.iter_procs(self.copies_other_than(proc, block)):
            self.counters.invalidations_sent += 1
            self._drop_remote(q, block)
        self.tracker.store_performed(proc, addr)

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> ProtocolResult:
        result = super().run(trace)
        # The tracker counted replacement-started lifetimes apart; surface
        # them on the result (Counters.replacements counts evictions, which
        # can exceed re-fetches when evicted blocks are never touched again).
        return ProtocolResult(
            protocol=result.protocol,
            trace_name=result.trace_name,
            block_bytes=result.block_bytes,
            num_procs=result.num_procs,
            breakdown=result.breakdown,
            counters=result.counters,
            replacement_misses=self.tracker.replacement_misses,
        )
