"""Prefetching potential analysis (paper section 2.0).

"PC misses can be eliminated by preloading blocks in the cache.  CFS
misses can be eliminated by preloading blocks in the cache if we also have
a technique to detect and eliminate false sharing misses.  CTS misses
cannot be eliminated."

The five-way classification therefore yields three miss-rate *floors*:

``baseline``
    The plain essential rate (what MIN achieves).
``preload``
    Perfect block preloading: PC misses gone.  CFS misses remain — the
    preloaded block would be invalidated by the remote store before its
    (never-consumed) values are needed, so the processor still misses.
``preload + useless-miss elimination``
    Perfect preloading on a MIN-like word-invalidate system: PC and CFS
    both gone.  Only CTS + PTS — the irreducible interprocessor
    communication — remains.

These floors bound what *any* prefetcher can do on the trace; the spread
between them measures how much of the cold traffic is layout (CFS) versus
compulsory communication (CTS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..classify.breakdown import DuboisBreakdown
from ..trace.trace import Trace
from .report import format_table
from .sweep import sweep_block_sizes


@dataclass(frozen=True)
class PrefetchFloors:
    """Miss-rate floors for one (trace, block size) pair (percent)."""

    block_bytes: int
    breakdown: DuboisBreakdown

    @property
    def baseline(self) -> float:
        """Essential miss rate: nothing eliminated."""
        return self.breakdown.essential_rate

    @property
    def with_preload(self) -> float:
        """Perfect preloading eliminates PC misses only."""
        b = self.breakdown
        return b.rate(b.essential - b.pc)

    @property
    def with_preload_and_wi(self) -> float:
        """Preloading + word invalidation eliminates PC and CFS."""
        b = self.breakdown
        return b.rate(b.essential - b.pc - b.cfs)

    @property
    def irreducible(self) -> float:
        """The communication floor: CTS + PTS."""
        b = self.breakdown
        return b.rate(b.cts + b.pts)

    def as_row(self) -> List:
        return [self.block_bytes,
                f"{self.baseline:.2f}",
                f"{self.with_preload:.2f}",
                f"{self.with_preload_and_wi:.2f}",
                f"{self.irreducible:.2f}"]


@dataclass(frozen=True)
class PrefetchAnalysis:
    """Prefetch floors across block sizes for one trace."""

    trace_name: str
    floors: Dict[int, PrefetchFloors]

    def format(self) -> str:
        headers = ["B", "essential%", "+preload%", "+preload+WI%",
                   "CTS+PTS%"]
        rows = [self.floors[bb].as_row() for bb in sorted(self.floors)]
        return format_table(
            headers, rows,
            title=f"{self.trace_name}: prefetching miss-rate floors")


def prefetch_analysis(trace: Trace,
                      block_sizes: Optional[Sequence[int]] = None
                      ) -> PrefetchAnalysis:
    """Compute the three prefetching floors at each block size (the
    paper's nine by default), from one engine ``classify`` sweep."""
    sweep = sweep_block_sizes(trace, block_sizes)
    floors = {bb: PrefetchFloors(block_bytes=bb, breakdown=bd)
              for bb, bd in zip(sweep.block_sizes, sweep.breakdowns)}
    return PrefetchAnalysis(trace_name=trace.name or "<anonymous>",
                            floors=floors)
