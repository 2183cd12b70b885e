"""Unit tests for per-data-structure miss attribution.

The oracle is :class:`RecordingReference`: the Appendix A
transliteration, classifying one lifetime at a time and noting each
lifetime's fetch word and class in the order it ends them.  Charging
each noted lifetime to its word's region, in that order, gives the
table ``attribute_misses`` must reproduce — counts and the order of
its regions both.
"""

from bisect import bisect_right
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.attribution import (
    RegionTable,
    UNMAPPED,
    attribute_misses,
)
from repro.analysis.engine import SharedPrecompute
from repro.classify import classify
from repro.classify.breakdown import DuboisBreakdown, MissClass
from repro.classify.reference import ReferenceDuboisClassifier
from repro.errors import ConfigError
from repro.kernels import protocols as kernel_protocols
from repro.mem.addresses import BlockMap
from repro.trace import TraceBuilder
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace
from repro.workloads.registry import make_workload


class RecordingReference(ReferenceDuboisClassifier):
    """The reference classifier, noting ``(fetch word, class)`` of each
    lifetime in :attr:`ended`, in the order it ends them."""

    def __init__(self, num_procs, block_map):
        super().__init__(num_procs, block_map)
        self._fetch_word = {}
        self.ended = []

    def _read_action(self, proc, word_addr):
        block = self.block_map.block_of(word_addr)
        if not self._present.get(block, 0) & (1 << proc):
            self._fetch_word[block, proc] = word_addr
        super()._read_action(proc, word_addr)

    def _classify_mask(self, block, mask):
        while mask:
            low = mask & -mask
            mask ^= low
            before = dict(self._counts)
            super()._classify_mask(block, low)
            (mclass,) = [c for c in before if self._counts[c] != before[c]]
            word = self._fetch_word[block, low.bit_length() - 1]
            self.ended.append((word, mclass))


def oracle_attribution(trace, block_bytes, regions):
    """``by_region`` as the recorder's lifetimes give it: regions in the
    order their first lifetime ends, names looked up by bisection."""
    clf = RecordingReference(trace.num_procs, BlockMap(block_bytes))
    for proc, op, addr in trace:
        if op in (LOAD, STORE):
            clf.access(proc, op, addr)
    clf.finish()
    spans = sorted((base, base + words, name)
                   for name, base, words in regions)
    bases = [base for base, _, _ in spans]
    counts = {}
    for word, mclass in clf.ended:
        i = bisect_right(bases, word) - 1
        name = spans[i][2] if i >= 0 and word < spans[i][1] else UNMAPPED
        per = counts.setdefault(name, dict.fromkeys(MissClass, 0))
        per[mclass] += 1
    refs = trace.counts().data
    return {name: DuboisBreakdown(*per.values(), data_refs=refs)
            for name, per in counts.items()}


class TestRegionTable:
    def test_lookup(self):
        table = RegionTable([("a", 0, 4), ("b", 10, 2)])
        got = table.lookup(np.array([0, 3, 4, 10, 12]))
        assert [table.labels[i] for i in got] == ["a", "a", UNMAPPED, "b",
                                                  UNMAPPED]

    def test_lookup_merges_repeated_names(self):
        table = RegionTable([("a", 0, 2), ("b", 2, 2), ("a", 8, 1)])
        got = table.lookup(np.array([1, 8, 3, 9]))
        assert [table.labels[i] for i in got] == ["a", "a", "b", UNMAPPED]
        assert table.labels == sorted(["a", "b", UNMAPPED])
        assert len(RegionTable([]).lookup(np.array([0, 5]))) == 2

    def test_sorted_regardless_of_input_order(self):
        table = RegionTable([("b", 10, 2), ("a", 0, 4)])
        assert table.names == ["a", "b"]

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            RegionTable([("a", 0, 4), ("b", 3, 4)])

    def test_empty_region_rejected(self):
        with pytest.raises(ConfigError):
            RegionTable([("a", 0, 0)])

    def test_from_trace_requires_meta(self):
        t = TraceBuilder(1).load(0, 0).build()
        with pytest.raises(ConfigError):
            RegionTable.from_trace(t)


class TestAttribution:
    def test_counts_sum_to_classifier_totals(self, mp3d_trace):
        result = attribute_misses(mp3d_trace, 32)
        total = sum(bd.total for bd in result.by_region.values())
        assert total == classify(mp3d_trace, 32).total

    def test_all_misses_mapped_for_workloads(self, mp3d_trace):
        """Workload generators allocate everything through the allocator,
        so no miss should be unattributable."""
        result = attribute_misses(mp3d_trace, 32)
        assert UNMAPPED not in result.by_region

    def test_explicit_regions(self):
        t = (TraceBuilder(2)
             .store(0, 0).store(1, 1)   # false sharing in 'hot'
             .store(0, 0).store(1, 1)
             .load(0, 8)                # private in 'cold'
             .build())
        result = attribute_misses(t, 8, regions=[("hot", 0, 2),
                                                 ("cold", 8, 1)])
        assert result.by_region["hot"].pfs > 0
        assert result.by_region["cold"].pfs == 0
        assert result.by_region["cold"].pc == 1

    def test_top_false_sharers_ranked(self, mp3d_trace):
        result = attribute_misses(mp3d_trace, 64)
        top = result.top_false_sharers()
        assert top == sorted(top, key=lambda kv: -kv[1])
        assert all(count > 0 for _, count in top)

    def test_mp3d_false_sharing_lands_on_particles_and_cells(self, mp3d_trace):
        """The paper's section 6 attribution: 'False sharing misses are
        due to modifications of particles and of space cells.'"""
        result = attribute_misses(mp3d_trace, 64)
        pfs_by_family = {}
        for name, bd in result.by_region.items():
            family = name.split(".")[1].split("[")[0] if "." in name else name
            pfs_by_family[family] = pfs_by_family.get(family, 0) + bd.pfs
        data_pfs = pfs_by_family.get("particle", 0) + pfs_by_family.get("cell", 0)
        total_pfs = sum(pfs_by_family.values())
        assert data_pfs > 0.5 * total_pfs

    def test_format_renders_table(self, mp3d_trace):
        text = attribute_misses(mp3d_trace, 32).format()
        assert "region" in text and "PFS" in text

    def test_unmapped_bucket_used_for_unknown_words(self):
        t = TraceBuilder(1).load(0, 999).build()
        result = attribute_misses(t, 8, regions=[("a", 0, 4)])
        assert result.by_region[UNMAPPED].pc == 1

    def test_figure1_lifetimes_charge_their_fetch_words(self, fig1_trace):
        """Figure 1 at two-word blocks: P2's cold load of word 0 is CTS,
        P1's cold store to word 0 is PC (it lives to the end), P2's
        reload on word 1 is PTS."""
        result = attribute_misses(fig1_trace, 8,
                                  regions=[("w0", 0, 1), ("w1", 1, 1)])
        got = {name: bd.as_dict() for name, bd in result.by_region.items()}
        assert got == {
            "w0": {"PC": 1, "CTS": 1, "CFS": 0, "PTS": 0, "PFS": 0,
                   "data_refs": 4},
            "w1": {"PC": 0, "CTS": 0, "CFS": 0, "PTS": 1, "PFS": 0,
                   "data_refs": 4}}


# ----------------------------------------------------------------------
# against the recording reference
# ----------------------------------------------------------------------
MAX_PROCS = 4
MAX_WORDS = 24


@st.composite
def traces(draw, max_events=60):
    """Random interleaved traces, sync rows included."""
    n = draw(st.integers(0, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    events = [
        (draw(st.integers(0, nproc - 1)),
         draw(st.sampled_from((LOAD, LOAD, STORE, STORE, ACQUIRE,
                               RELEASE))),
         draw(st.integers(0, MAX_WORDS - 1)))
        for _ in range(n)
    ]
    return Trace(events, nproc, validate=False)


@st.composite
def region_tables(draw):
    """Disjoint regions over part of the word space, so some words are
    unmapped; names may repeat."""
    cuts = sorted(draw(st.sets(st.integers(0, MAX_WORDS), max_size=8)))
    regions = []
    for base, end in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            regions.append((draw(st.sampled_from("abcde")), base,
                            end - base))
    return regions


@given(traces(), region_tables(), st.sampled_from((4, 8, 16, 32, 64)),
       st.sampled_from((1, 3, 1 << 14)))
@settings(max_examples=300, deadline=None)
def test_attribution_matches_recording_reference(trace, regions, bb,
                                                 batch_rows):
    """Contents and region order equal the recorder's, whatever the
    batch cut (one-row batches hold one block each)."""
    with mock.patch.object(kernel_protocols, "BATCH_ROWS", batch_rows):
        got = attribute_misses(trace, bb, regions=regions).by_region
    want = oracle_attribution(trace, bb, regions)
    assert list(got.items()) == list(want.items())


FAMILIES = ("MP3D200", "WATER16", "JACOBI64", "FFT256", "LU32",
            "MATMUL24", "SOR64")


@pytest.mark.parametrize("workload", FAMILIES)
def test_workload_attribution_matches_reference_and_cell(workload):
    """Each family at small, middle and large blocks: the recorder's
    table in the recorder's order, and per-class sums equal to the
    ``("classify", B, "dubois")`` cell."""
    trace = make_workload(workload).generate()
    pre = SharedPrecompute(trace, kernel="vectorized")
    for bb in (4, 64, 1024):
        got = attribute_misses(trace, bb).by_region
        want = oracle_attribution(trace, bb, trace.meta["regions"])
        assert list(got.items()) == list(want.items()), (workload, bb)
        cell = pre.run_cell(("classify", bb, "dubois"))
        for field in ("pc", "cts", "cfs", "pts", "pfs"):
            assert (sum(getattr(bd, field) for bd in got.values())
                    == getattr(cell, field)), (workload, bb, field)
