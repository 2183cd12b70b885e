"""Property-based tests (hypothesis) for the protocol simulators."""

import hypothesis.strategies as st
from hypothesis import given, settings

from interpreted import run_all_checked, run_checked
from repro.classify import DuboisClassifier
from repro.mem import BlockMap
from repro.protocols import run_protocols
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace

MAX_PROCS = 4
MAX_WORDS = 12


@st.composite
def sync_traces(draw, max_events=50):
    """Random traces including acquire/release events.

    Each processor's releases use its own sync variable so the event
    stream remains structurally sane; data races are allowed (the
    protocols must be robust to any input trace, even though the delayed
    ones are only *meaningful* on race-free ones).
    """
    n = draw(st.integers(1, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    sync_base = 1000
    events = []
    for _ in range(n):
        proc = draw(st.integers(0, nproc - 1))
        kind = draw(st.integers(0, 9))
        if kind <= 5:
            events.append((proc, draw(st.sampled_from((LOAD, STORE))),
                           draw(st.integers(0, MAX_WORDS - 1))))
        elif kind <= 7:
            events.append((proc, ACQUIRE, sync_base + proc))
        else:
            events.append((proc, RELEASE, sync_base + proc))
    return Trace(events, nproc, validate=False)


block_sizes = st.sampled_from((4, 8, 16, 32))
ALL = ("MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX")


@given(sync_traces(), block_sizes)
@settings(max_examples=80, deadline=None)
def test_otf_decomposition_equals_appendix_a(trace, bb):
    bd = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    r = run_checked("OTF", trace, bb)
    assert r.breakdown.as_dict() == bd.as_dict()


@given(sync_traces(), block_sizes)
@settings(max_examples=80, deadline=None)
def test_min_at_most_essential_and_no_false_sharing(trace, bb):
    bd = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    r = run_checked("MIN", trace, bb)
    assert r.misses <= bd.essential
    # MIN eliminates useless (PFS) misses entirely; cold misses — even
    # CFS, whose fetched fresh values go unused — are unavoidable.
    assert r.breakdown.pfs == 0


@given(sync_traces(), block_sizes)
@settings(max_examples=60, deadline=None)
def test_max_dominates_otf(trace, bb):
    res = run_all_checked(trace, bb, ["OTF", "MAX"])
    assert res["MAX"].misses >= res["OTF"].misses


@given(sync_traces(), block_sizes)
@settings(max_examples=60, deadline=None)
def test_all_protocols_complete_and_account_consistently(trace, bb):
    for name, r in run_all_checked(trace, bb, ALL).items():
        b = r.breakdown
        assert b.pc + b.cts + b.cfs + b.pts + b.pfs == b.total, name
        assert b.data_refs == sum(1 for _, op, _ in trace.events
                                  if op in (LOAD, STORE)), name
        assert r.misses >= 0
        # every fetch is a miss and vice versa (infinite caches)
        assert r.counters.fetches == r.misses, name


@given(sync_traces(), block_sizes)
@settings(max_examples=60, deadline=None)
def test_wbwi_misses_at_most_otf(trace, bb):
    """Word invalidation can only remove misses relative to OTF."""
    res = run_all_checked(trace, bb, ["OTF", "WBWI"])
    assert res["WBWI"].misses <= res["OTF"].misses


@given(sync_traces(), block_sizes)
@settings(max_examples=60, deadline=None)
def test_rd_misses_at_most_otf(trace, bb):
    """Deferring invalidations to acquires can only combine misses."""
    res = run_all_checked(trace, bb, ["OTF", "RD"])
    assert res["RD"].misses <= res["OTF"].misses


@given(sync_traces(), block_sizes)
@settings(max_examples=40, deadline=None)
def test_protocols_deterministic(trace, bb):
    a = run_protocols(trace, bb, ALL)
    b = run_protocols(trace, bb, ALL)
    for name in ALL:
        assert a[name].breakdown.as_dict() == b[name].breakdown.as_dict()
        assert a[name].counters.as_dict() == b[name].counters.as_dict()


@given(sync_traces())
@settings(max_examples=60, deadline=None)
def test_block_size_4_makes_min_wbwi_otf_agree(trace):
    """With one-word blocks, word invalidation degenerates to block
    invalidation: MIN, WBWI and OTF see identical misses."""
    res = run_all_checked(trace, 4, ["MIN", "WBWI", "OTF"])
    assert res["MIN"].misses == res["OTF"].misses
    assert res["WBWI"].misses == res["OTF"].misses
