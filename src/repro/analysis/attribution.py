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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..classify.breakdown import DuboisBreakdown
from ..errors import ConfigError
from ..kernels import KernelContext, plan_batches
from ..kernels.classifiers import dubois_lifetimes
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
        last_end = -1
        for base, words, name in cleaned:
            if words <= 0:
                raise ConfigError(f"region {name!r} has size {words}")
            if base < last_end:
                raise ConfigError(
                    f"region {name!r} overlaps its predecessor")
            last_end = base + words
        self._names = [name for _, _, name in cleaned]
        table = np.array([r[:2] for r in cleaned], dtype=np.int64)
        self._bases, sizes = table.reshape(-1, 2).T.copy()
        # Index -1, a word before every region, reads the sentinels: an
        # end no word is below, and UNMAPPED's label.
        self._ends = np.append(self._bases + sizes, -1)
        labels, self._label_ids = np.unique(self._names + [UNMAPPED],
                                            return_inverse=True)
        #: The distinct region names and :data:`UNMAPPED`, sorted: what
        #: :meth:`lookup` indexes.
        self.labels: List[str] = labels.tolist()

    @classmethod
    def from_trace(cls, trace: Trace) -> "RegionTable":
        """Build from ``trace.meta['regions']`` (workload-generated traces)."""
        regions = trace.meta.get("regions")
        if not regions:
            raise ConfigError(
                "trace carries no region table (meta['regions']); pass "
                "regions explicitly")
        return cls([(r[0], r[1], r[2]) for r in regions])

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """Per word address, the :attr:`labels` index of its region's
        name (:data:`UNMAPPED`'s outside every region)."""
        i = np.searchsorted(self._bases, words, "right") - 1
        return np.where(words < self._ends[i], self._label_ids[i],
                        self._label_ids[-1])

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

    The Dubois kernel's lifetimes, over batches of whole blocks, add
    into one regions × classes table, so the rows sum to the cell's
    breakdown.  ``by_region`` lists the regions in the order the
    streaming classifier first ends a lifetime charged to each, the
    order ties keep when :meth:`AttributionResult.format` ranks them.
    """
    table = (RegionTable(regions) if regions is not None
             else RegionTable.from_trace(trace))
    block_map = BlockMap(block_bytes)
    columns = trace.columns()
    size = len(table.labels)
    counts = np.zeros(size * 5, dtype=np.int64)
    first = np.full(size, np.iinfo(np.int64).max)
    for rows in plan_batches(columns, block_map.offset_bits).batches():
        ctx = KernelContext(columns.proc[rows], columns.op[rows],
                            columns.addr[rows], trace.num_procs, rows)
        fetch, code, key = dubois_lifetimes(ctx, block_map)
        label = table.lookup(ctx.addr[fetch])
        counts += np.bincount(label * 5 + code, minlength=size * 5)
        np.minimum.at(first, label, key)
    counts = counts.reshape(size, 5).tolist()
    refs = trace.counts().data
    by_region = {
        table.labels[i]: DuboisBreakdown(*counts[i], data_refs=refs)
        for i in np.argsort(first, kind="stable")
        if first[i] < np.iinfo(np.int64).max}
    return AttributionResult(trace_name=trace.name or "<anonymous>",
                             block_bytes=block_bytes, by_region=by_region)
