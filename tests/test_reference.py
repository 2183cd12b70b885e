"""Differential tests: the Dubois kernel vs the Appendix A transliteration.

:class:`~repro.classify.dubois.DuboisClassifier` is the executable
specification — a line-by-line rendering of the paper's pseudocode.  The
engine's default path runs the vectorized Dubois kernel instead; these
tests pin the two together on real workload prefixes, and check the
classifier's own sliced ``feed_data`` path against its per-event API.
"""

import pytest

from interpreted import classify_by_access
from repro.analysis.engine import SharedPrecompute
from repro.classify import DuboisClassifier
from repro.errors import TraceError
from repro.mem import BlockMap
from repro.trace.trace import Trace
from repro.workloads.registry import SMALL_SUITE, make_workload


@pytest.mark.parametrize("block_bytes", (4, 64, 1024))
@pytest.mark.parametrize("name", SMALL_SUITE)
def test_optimized_matches_reference_on_workloads(name, block_bytes):
    full = make_workload(name).generate()
    trace = Trace(full.events[:6000], full.num_procs, name=name)
    bm = BlockMap(block_bytes)
    expected = DuboisClassifier.classify_trace(trace, bm)
    # The engine path (prefilter + shared precompute + kernel) must agree.
    pre = SharedPrecompute(trace)
    assert pre.run_classifier("dubois", block_bytes) == expected


@pytest.fixture(scope="module")
def mp3d200():
    return make_workload("MP3D200").generate()


@pytest.mark.parametrize("block_bytes", (4, 64, 1024))
def test_feed_data_slices_match_access_loop(mp3d200, block_bytes):
    bm = BlockMap(block_bytes)
    data = mp3d200.columns().data_only()
    clf = DuboisClassifier(mp3d200.num_procs, bm)
    step = 4099  # uneven slices, so cuts land mid-lifetime
    for start in range(0, len(data), step):
        part = data[start:start + step]
        clf.feed_data(part.proc.tolist(), part.op.tolist(),
                      part.addr.tolist(),
                      part.block_ids(bm.offset_bits).tolist())
    assert clf.finish() == classify_by_access(DuboisClassifier, mp3d200, bm)
    with pytest.raises(TraceError):
        clf.feed_data([], [], [], [])


def test_reference_rejects_bad_opcode():
    clf = DuboisClassifier(1, BlockMap(16))
    with pytest.raises(Exception):
        clf.access(0, 9, 0)
