"""Per-data-structure miss attribution.

The paper explains each benchmark's Figure 5 curve by pointing at specific
data structures ("false sharing misses are due to modifications of
particles and of space cells", "parts of the false sharing ... because of
the particular implementation of barriers").  This module makes that
analysis mechanical: every miss is attributed to the region (data
structure) containing the *word whose access missed*, producing a
per-region five-way breakdown.

Workload-generated traces carry their region table in
``trace.meta["regions"]``; any ``[(name, base_word, words), ...]`` table
works.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..classify.breakdown import DuboisBreakdown, MissClass
from ..classify.dubois import DuboisClassifier
from ..errors import ConfigError
from ..mem.addresses import BlockMap
from ..trace.trace import Trace
from .report import format_table

#: Label for misses on words outside every region.
UNMAPPED = "<unmapped>"


class RegionTable:
    """Sorted lookup from word address to region name."""

    def __init__(self, regions: Sequence[Tuple[str, int, int]]):
        cleaned = sorted((int(base), int(words), str(name))
                         for name, base, words in regions)
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._names: List[str] = []
        last_end = -1
        for base, words, name in cleaned:
            if words <= 0:
                raise ConfigError(f"region {name!r} has size {words}")
            if base < last_end:
                raise ConfigError(
                    f"region {name!r} overlaps its predecessor")
            self._bases.append(base)
            self._ends.append(base + words)
            self._names.append(name)
            last_end = base + words

    @classmethod
    def from_trace(cls, trace: Trace) -> "RegionTable":
        """Build from ``trace.meta['regions']`` (workload-generated traces)."""
        regions = trace.meta.get("regions")
        if not regions:
            raise ConfigError(
                "trace carries no region table (meta['regions']); pass "
                "regions explicitly")
        return cls([(r[0], r[1], r[2]) for r in regions])

    def name_of(self, word_addr: int) -> str:
        """Region name containing ``word_addr`` (or :data:`UNMAPPED`)."""
        i = bisect_right(self._bases, word_addr) - 1
        if i >= 0 and word_addr < self._ends[i]:
            return self._names[i]
        return UNMAPPED

    @property
    def names(self) -> List[str]:
        return list(self._names)


@dataclass(frozen=True)
class AttributionResult:
    """Misses grouped by data structure at one block size."""

    trace_name: str
    block_bytes: int
    by_region: Dict[str, DuboisBreakdown]

    def top_false_sharers(self, limit: int = 5) -> List[Tuple[str, int]]:
        """Regions ranked by useless (PFS) misses."""
        ranked = sorted(((name, bd.pfs) for name, bd in self.by_region.items()),
                        key=lambda kv: -kv[1])
        return [kv for kv in ranked[:limit] if kv[1] > 0]

    def format(self) -> str:
        headers = ["region", "PC", "CTS", "CFS", "PTS", "PFS", "total"]
        rows = []
        for name, bd in sorted(self.by_region.items(),
                               key=lambda kv: -kv[1].total):
            rows.append([name, bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs,
                         bd.total])
        return format_table(
            headers, rows,
            title=f"{self.trace_name} @ B={self.block_bytes}: misses by "
                  f"data structure")


def attribute_misses(trace: Trace, block_bytes: int,
                     regions: Optional[Sequence[Tuple[str, int, int]]] = None
                     ) -> AttributionResult:
    """Classify ``trace`` and attribute every miss to a data structure.

    A miss is charged to the region containing the word whose access
    triggered it.  (A block can span regions; charging the faulting word
    is what identifies the structure whose *access pattern* pays for the
    miss — e.g. a barrier flag read that keeps missing because the
    adjacent counter word is write-shared.)
    """
    table = (RegionTable(regions) if regions is not None
             else RegionTable.from_trace(trace))
    records: List = []
    DuboisClassifier.classify_trace(trace, BlockMap(block_bytes),
                                    record_misses=True, out_records=records)
    counts: Dict[str, Dict[MissClass, int]] = {}
    for record in records:
        name = table.name_of(record.word)
        per = counts.setdefault(name, {mc: 0 for mc in MissClass})
        per[record.mclass] += 1
    refs = trace.counts().data
    by_region = {
        name: DuboisBreakdown(pc=per[MissClass.PC], cts=per[MissClass.CTS],
                              cfs=per[MissClass.CFS], pts=per[MissClass.PTS],
                              pfs=per[MissClass.PFS], data_refs=refs)
        for name, per in counts.items()}
    return AttributionResult(trace_name=trace.name or "<anonymous>",
                             block_bytes=block_bytes, by_region=by_region)
