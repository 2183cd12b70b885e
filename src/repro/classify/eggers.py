"""Eggers & Jeremiassen's miss classification (paper section 3.2).

Rules, quoted from the paper:

* "A cold miss (CM) occurs at the first reference to a given block by a
  given processor and all following misses to the same block by the same
  processor are classified as invalidation misses."
* "Invalidation misses are then classified as True Sharing Misses (TSM) if
  the word accessed on the miss has been modified since (and including) the
  reference causing the invalidation.  All other invalidation misses are
  classified as False Sharing Misses (FSM)."

Unlike ours, the decision is made *at miss time* from the single word the
missing reference touches — it ignores new values communicated by the miss
but consumed later in the lifetime, which is why it overestimates false
sharing (Figure 3, Table 1).
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import TraceError
from ..mem.addresses import BlockMap
from ..trace.events import LOAD, STORE
from ..trace.trace import Trace
from .breakdown import SimpleBreakdown
from .feed import feed_trace


class EggersClassifier:
    """Streaming Eggers/Jeremiassen classifier (infinite caches).

    State per block: a valid bitmask, an ever-referenced bitmask and, for
    each processor, the mask of word offsets modified since the store that
    invalidated that processor's copy (the TSM test window).
    """

    def __init__(self, num_procs: int, block_map: BlockMap,
                 *, labels: list = None):
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self.block_map = block_map
        #: Optional per-miss label sink ("CM"/"TSM"/"FSM" in miss order),
        #: used by the per-miss cross-scheme invariant checks.
        self.labels = labels
        self._valid: Dict[int, int] = {}
        self._referenced: Dict[int, int] = {}
        # Per block: list of per-processor word-offset masks, modified since
        # the invalidation of that processor's copy.
        self._stale: Dict[int, List[int]] = {}
        self._cold = 0
        self._tsm = 0
        self._fsm = 0
        self._data_refs = 0
        self._finished = False

    def access(self, proc: int, op: int, word_addr: int) -> None:
        """Process one data reference."""
        if self._finished:
            raise TraceError("classifier already finished")
        if op != LOAD and op != STORE:
            raise TraceError(f"access expects LOAD/STORE, got op {op}")
        self._access(proc, op,
                     self.block_map.block_of(word_addr),
                     1 << self.block_map.word_offset(word_addr))

    def feed_data(self, procs, ops, addrs, blocks) -> None:
        """Fast path: consume pre-decoded, pre-filtered data references.

        Equal-length sequences of **LOAD/STORE rows only**, with ``blocks``
        the precomputed block address of each access (vectorized
        ``addr >> shift`` from the columnar trace).
        """
        if self._finished:
            raise TraceError("classifier already finished")
        acc = self._access
        mask = self.block_map.words_per_block - 1
        for proc, op, addr, block in zip(procs, ops, addrs, blocks):
            acc(proc, op, block, 1 << (addr & mask))

    def _access(self, proc: int, op: int, block: int,
                offset_bit: int) -> None:
        self._data_refs += 1
        bit = 1 << proc

        referenced = self._referenced.get(block, 0)
        valid = self._valid.get(block, 0)
        stale = self._stale.get(block)
        if not referenced & bit:
            # First reference to the block by this processor: cold miss.
            self._cold += 1
            if self.labels is not None:
                self.labels.append("CM")
            self._referenced[block] = referenced | bit
            valid |= bit
            if stale is not None:
                stale[proc] = 0
        elif not valid & bit:
            # Invalidation miss: TSM iff the accessed word was modified
            # since (and including) the invalidating reference.
            if stale is not None and stale[proc] & offset_bit:
                self._tsm += 1
                if self.labels is not None:
                    self.labels.append("TSM")
            else:
                self._fsm += 1
                if self.labels is not None:
                    self.labels.append("FSM")
            valid |= bit
            if stale is not None:
                stale[proc] = 0
        self._valid[block] = valid

        if op == STORE:
            if stale is None:
                stale = [0] * self.num_procs
                self._stale[block] = stale
            invalidated = valid & ~bit
            for q in range(self.num_procs):
                if q == proc:
                    continue
                qbit = 1 << q
                if invalidated & qbit:
                    # This store is "the reference causing the invalidation"
                    # for q: the window starts here, inclusive.
                    stale[q] = offset_bit
                else:
                    # q's copy is already invalid (or q never fetched): the
                    # word joins q's modified-since-invalidation window.
                    stale[q] |= offset_bit
            self._valid[block] = bit

    def event(self, proc: int, op: int, addr: int) -> None:
        """Process any trace event; synchronization events are ignored."""
        if op == LOAD or op == STORE:
            self.access(proc, op, addr)

    def finish(self) -> SimpleBreakdown:
        """Return the CM/TSM/FSM breakdown (no end-of-trace work needed:

        Eggers classifies at miss time, so live lifetimes add nothing)."""
        if self._finished:
            raise TraceError("classifier already finished")
        self._finished = True
        return SimpleBreakdown(cold=self._cold, true_sharing=self._tsm,
                               false_sharing=self._fsm,
                               data_refs=self._data_refs)

    @classmethod
    def classify_trace(cls, trace: Trace, block_map: BlockMap) -> SimpleBreakdown:
        """Classify a whole trace at one block size."""
        clf = cls(trace.num_procs, block_map)
        feed_trace(trace, block_map, clf)
        return clf.finish()
