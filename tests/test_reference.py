"""Differential tests: optimized classifier vs the Appendix A transliteration.

:class:`~repro.classify.reference.ReferenceDuboisClassifier` is the
executable specification — a line-by-line rendering of the paper's
pseudocode.  The production classifier replaces its per-word C-flag masks
with a store-epoch scheme and adds inlined fast paths; these tests pin the
two implementations together, on random traces (hypothesis) and on real
workload prefixes, through both the streaming and the columnar engine path.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.engine import SharedPrecompute
from repro.classify import DuboisClassifier, ReferenceDuboisClassifier
from repro.mem import BlockMap
from repro.trace.events import LOAD, STORE
from repro.trace.trace import Trace
from repro.workloads.registry import SMALL_SUITE, make_workload

MAX_PROCS = 4
MAX_WORDS = 16


@st.composite
def traces(draw, max_events=60):
    n = draw(st.integers(1, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    events = [
        (draw(st.integers(0, nproc - 1)),
         draw(st.sampled_from((LOAD, STORE))),
         draw(st.integers(0, MAX_WORDS - 1)))
        for _ in range(n)
    ]
    return Trace(events, nproc, validate=False)


@given(traces(), st.sampled_from((4, 8, 16, 32, 64)))
@settings(max_examples=200, deadline=None)
def test_optimized_matches_reference_on_random_traces(trace, bb):
    bm = BlockMap(bb)
    assert (DuboisClassifier.classify_trace(trace, bm)
            == ReferenceDuboisClassifier.classify_trace(trace, bm))


@pytest.mark.parametrize("block_bytes", (4, 64, 1024))
@pytest.mark.parametrize("name", SMALL_SUITE)
def test_optimized_matches_reference_on_workloads(name, block_bytes):
    full = make_workload(name).generate()
    trace = Trace(full.events[:6000], full.num_procs, name=name)
    bm = BlockMap(block_bytes)
    expected = ReferenceDuboisClassifier.classify_trace(trace, bm)
    assert DuboisClassifier.classify_trace(trace, bm) == expected
    # The engine path (prefilter + shared precompute) must agree too.
    pre = SharedPrecompute(trace)
    assert pre.run_classifier("dubois", block_bytes) == expected


def test_reference_rejects_bad_opcode():
    clf = ReferenceDuboisClassifier(1, BlockMap(16))
    with pytest.raises(Exception):
        clf.access(0, 9, 0)
