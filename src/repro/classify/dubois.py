"""The paper's essential/useless miss classification (Appendix A).

This is the reference implementation of the core contribution: every miss of
an infinite-cache write-invalidate execution is classified, *at the end of
the lifetime it begins*, into

* **PC** — pure cold,
* **CTS** — cold and true sharing,
* **CFS** — cold and false sharing,
* **PTS** — pure true sharing (essential, not cold),
* **PFS** — pure false sharing (useless).

State (following Appendix A): per (block, processor) a Presence flag ``P``,
an Essential-Miss flag ``EM`` and a First-Reference flag ``FR``; per (word,
processor) a Communication flag ``C``.  We represent each per-processor flag
family as an integer bitmask per block/word, which keeps the inner loop
allocation-free.

Two places in the paper's Pascal-like pseudocode contain obvious typos that
we correct (both are forced by the prose definitions in section 2.0):

* ``classify`` guards with ``(my_block or (i < proc_id))``; a *write* must
  end the lifetimes of all processors *other than the writer*, so the
  condition is ``(my_block or (i <> proc_id))``.
* the C-flag clearing loop indexes ``C[block_ad + block_len*i]``; it must
  iterate over the ``block_len`` words *of the block*, i.e.
  ``C[base_word(block_ad) + i] for i in 0..block_len-1``.

Extension (paper section 2.0, "refine the definition of cold misses"): cold
misses are split into PC/CTS/CFS by snapshotting, at lifetime start, whether
the block had been modified since the start of the simulation.
"""

from __future__ import annotations

from typing import Dict

from ..errors import TraceError
from ..mem.addresses import BlockMap
from ..trace.events import LOAD, STORE
from ..trace.trace import Trace
from .breakdown import DuboisBreakdown

# Internal count indices (plain ints keep the hot loop off enum hashing),
# in MissClass order.
_PC, _CTS, _CFS, _PTS, _PFS = range(5)


class DuboisClassifier:
    """Streaming implementation of the Appendix A algorithm.

    Feed data events with :meth:`access` (sync events may be passed to
    :meth:`event`; they are ignored), then call :meth:`finish` once.

    Parameters
    ----------
    num_procs:
        Processor count of the trace.
    block_map:
        The block-size configuration to classify under.
    """

    def __init__(self, num_procs: int, block_map: BlockMap):
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self.block_map = block_map

        # Per-block state list [P, EM, FR-done, dirty-at-fetch, modified,
        # clear-seq-per-proc] (the first four are per-processor bitmasks) —
        # one dict lookup per access instead of one per flag family.
        #
        # The C flags are *virtual*: per word we keep the last two stores by
        # distinct processors as ``(top_proc, top_seq, second_seq)`` where
        # ``second_seq`` is the newest store by any processor other than
        # ``top_proc``; per (block, proc) we keep the sequence number of the
        # processor's last essential access (slot 5 of the state list).  The
        # C flag of word ``w`` for processor ``p`` is then set iff the
        # newest store to ``w`` by a processor other than ``p`` is more
        # recent than ``p``'s last delivery of the block — so setting,
        # testing and block-wide clearing are all O(1), independent of the
        # block size (a per-word clear loop dominates at large blocks).
        self._state: Dict[int, list] = {}
        self._comm: Dict[int, tuple] = {}
        self._seq = 0

        self._counts = [0, 0, 0, 0, 0]  # indexed _PC.._PFS
        self._data_refs = 0
        self._finished = False

    @property
    def data_refs(self) -> int:
        """Data references (loads + stores) consumed so far.

        Public accessor for consumers that adjust the reference count,
        e.g. the sweep engine's no-op read elision, which re-adds elided
        rows so rates stay comparable.
        """
        return self._data_refs

    # ------------------------------------------------------------------
    # event feeding
    # ------------------------------------------------------------------
    def access(self, proc: int, op: int, word_addr: int) -> None:
        """Process one data reference (``op`` is LOAD or STORE)."""
        if self._finished:
            raise TraceError("classifier already finished")
        block = self.block_map.block_of(word_addr)
        if op == LOAD:
            self._data_refs += 1
            self._seq += 1
            self._read_action(proc, word_addr, block)
        elif op == STORE:
            self._data_refs += 1
            self._seq += 1
            self._write_action(proc, word_addr, block)
        else:
            raise TraceError(f"access expects LOAD/STORE, got op {op}")

    def event(self, proc: int, op: int, addr: int) -> None:
        """Process any trace event; synchronization events are ignored."""
        if op == LOAD or op == STORE:
            self.access(proc, op, addr)

    def feed_data(self, procs, ops, addrs, blocks) -> None:
        """Fast path: consume pre-decoded, pre-filtered data references.

        All four arguments are equal-length sequences of plain ints holding
        **only LOAD/STORE rows** (the vectorized data-op prefilter of
        :class:`~repro.trace.columnar.TraceColumns`), with ``blocks`` the
        precomputed block address of each access (``addr >> shift`` done
        once, vectorized, instead of per event here).
        """
        if self._finished:
            raise TraceError("classifier already finished")
        read, write = self._read_action, self._write_action
        classify = self._classify_mask
        state, comm = self._state, self._comm
        base = self._data_refs
        seq = self._seq
        n = 0
        for proc, op, addr, block in zip(procs, ops, addrs, blocks):
            n += 1
            seq += 1
            bit = 1 << proc
            st = state.get(block)
            if op == STORE:
                if st is not None and st[0] & bit:
                    e = comm.get(addr)
                    if (e is None
                            or (e[1] if e[0] != proc else e[2]) <= st[5][proc]):
                        # The access part of the store is a no-op (hit, no
                        # pending communication): invalidate + flag inline.
                        others = st[0] & ~bit
                        if others:
                            classify(st, others)
                            st[0] = bit
                        if e is None:
                            comm[addr] = (proc, seq, 0)
                        elif e[0] != proc:
                            comm[addr] = (proc, seq, e[1])
                        else:
                            comm[addr] = (proc, seq, e[2])
                        st[4] = True
                        continue
                self._seq = seq
                write(proc, addr, block)
            else:
                if st is not None and st[0] & bit:
                    e = comm.get(addr)
                    if (e is None
                            or (e[1] if e[0] != proc else e[2]) <= st[5][proc]):
                        # Hit with no pending communication: _read_action
                        # would be a no-op, so skip it (the dominant case).
                        continue
                self._seq = seq
                read(proc, addr, block)
        self._data_refs = base + n
        self._seq = seq

    # ------------------------------------------------------------------
    # Appendix A actions
    # ------------------------------------------------------------------
    def _read_action(self, proc: int, word_addr: int, block: int) -> None:
        bit = 1 << proc
        st = self._state.get(block)
        if st is None:
            st = self._state[block] = [0, 0, 0, 0, False,
                                       [0] * self.num_procs]
        if not st[0] & bit:
            # Miss: a new lifetime starts here.
            st[0] |= bit
            st[1] &= ~bit
            if st[4]:
                st[3] |= bit
            else:
                st[3] &= ~bit
        e = self._comm.get(word_addr)
        if (e is not None
                and (e[1] if e[0] != proc else e[2]) > st[5][proc]):
            # The access touches a value defined by another processor since
            # this processor's last essential miss: the lifetime's miss is
            # essential, and all pending communicated values of the block
            # are considered delivered (advancing the clear sequence clears
            # the virtual C flags of every word of the block for ``proc``).
            st[1] |= bit
            st[5][proc] = self._seq

    def _write_action(self, proc: int, word_addr: int, block: int) -> None:
        # A store is also an access (may start a lifetime / detect sharing).
        self._read_action(proc, word_addr, block)
        bit = 1 << proc
        st = self._state[block]  # always present after the read action
        # The store invalidates every other copy: classify those lifetimes.
        others = st[0] & ~bit
        if others:
            self._classify_mask(st, others)
            st[0] = bit
        # Flag the new value for all other processors: record this store as
        # the word's newest, demoting the previous newest-by-another-proc.
        e = self._comm.get(word_addr)
        if e is None:
            self._comm[word_addr] = (proc, self._seq, 0)
        elif e[0] != proc:
            self._comm[word_addr] = (proc, self._seq, e[1])
        else:
            self._comm[word_addr] = (proc, self._seq, e[2])
        st[4] = True

    def _classify_mask(self, st: list, mask: int) -> None:
        """Classify (and end) the lifetimes of every processor in ``mask``."""
        first_done = st[2]
        essential = st[1]
        dirty = st[3]
        counts = self._counts
        m = mask
        while m:
            low = m & -m
            m ^= low
            if not first_done & low:
                # First completed lifetime for this processor: a cold miss,
                # refined by whether it communicated (EM) or fetched a
                # modified-but-unused block (dirty at fetch).
                if essential & low:
                    mclass = _CTS
                elif dirty & low:
                    mclass = _CFS
                else:
                    mclass = _PC
            elif essential & low:
                mclass = _PTS
            else:
                mclass = _PFS
            counts[mclass] += 1
        st[2] = first_done | mask

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------
    def finish(self) -> DuboisBreakdown:
        """Classify all still-live lifetimes and return the breakdown."""
        if self._finished:
            raise TraceError("classifier already finished")
        self._finished = True
        for st in self._state.values():
            if st[0]:
                self._classify_mask(st, st[0])
                st[0] = 0
        c = self._counts
        return DuboisBreakdown(pc=c[_PC], cts=c[_CTS], cfs=c[_CFS],
                               pts=c[_PTS], pfs=c[_PFS],
                               data_refs=self._data_refs)

    # ------------------------------------------------------------------
    # one-shot driver
    # ------------------------------------------------------------------
    @classmethod
    def classify_trace(cls, trace: Trace,
                       block_map: BlockMap) -> DuboisBreakdown:
        """Classify a whole trace at one block size."""
        clf = cls(trace.num_procs, block_map)
        # Vectorized data-op prefilter + block ids.
        data = trace.columns().data_only()
        clf.feed_data(data.proc.tolist(), data.op.tolist(),
                      data.addr.tolist(),
                      data.block_ids(block_map.offset_bits).tolist())
        return clf.finish()


def classify(trace: Trace, block_bytes: int) -> DuboisBreakdown:
    """Convenience wrapper: classify ``trace`` at ``block_bytes``."""
    return DuboisClassifier.classify_trace(trace, BlockMap(block_bytes))
