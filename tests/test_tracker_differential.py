"""Differential tests: the bitmask LifetimeTracker against the frozen
dict-based reference (``reference_tracker.py``).

Two levels:

* raw tracker operation sequences — random ``fetch`` (including
  replacement re-fetches), ``access``, ``store_performed``, ``invalidate``
  and ``deliver_word`` — must produce the same ``invalidate()`` classes,
  ``finish()`` breakdowns and replacement-miss counts;
* every protocol that drives a tracker (the seven paper schedules, WU, CU,
  SECTOR and the finite LRU caches) must return an identical
  ``ProtocolResult`` with the reference tracker patched in.
"""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from interpreted import interpret
from reference_tracker import ReferenceLifetimeTracker
from repro.mem import BlockMap
from repro.protocols import base as protocol_base
from repro.protocols.finite import FiniteOTFProtocol
from repro.protocols.lifetime import LifetimeTracker
from repro.protocols.sector import SectorProtocol
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace

BLOCK_SIZES = (4, 8, 64, 1024)
MAX_PROCS = 4
NUM_BLOCKS = 3


@st.composite
def words(draw, words_per_block):
    """A word address in one of NUM_BLOCKS blocks, biased towards a few
    offsets (so large blocks still see repeated words) but able to reach
    any offset."""
    block = draw(st.integers(0, NUM_BLOCKS - 1))
    hot = sorted({0, 1, words_per_block // 2, words_per_block - 1})
    offset = draw(st.one_of(st.sampled_from(hot),
                            st.integers(0, words_per_block - 1)))
    return block * words_per_block + offset


OPS = ("fetch", "refetch", "access", "store", "invalidate", "deliver")


@st.composite
def tracker_programs(draw):
    bb = draw(st.sampled_from(BLOCK_SIZES))
    wpb = bb // 4
    nproc = draw(st.integers(1, MAX_PROCS))
    n = draw(st.integers(1, 80))
    program = [(draw(st.sampled_from(OPS)),
                draw(st.integers(0, nproc - 1)),
                draw(words(wpb))) for _ in range(n)]
    return bb, nproc, program


def _run_program(tracker, bm, program):
    """Apply ``program`` to ``tracker``; ops that would be illegal in the
    current state (fetching a held block, invalidating an unheld one) are
    skipped, and accesses fetch first — as the protocols do.  Returns the
    observable trail."""
    trail = []
    for op, proc, word in program:
        block = bm.block_of(word)
        held = tracker.holds(proc, block)
        if op in ("fetch", "refetch"):
            if not held:
                tracker.fetch(proc, block, replacement=op == "refetch")
        elif op == "access":
            if not held:
                tracker.fetch(proc, block)
            tracker.access(proc, word)
        elif op == "store":
            tracker.store_performed(proc, word)
        elif op == "invalidate":
            if held:
                trail.append(tracker.invalidate(proc, block))
        else:
            tracker.deliver_word(proc, word)
    trail.append(tracker.finish().as_dict())
    trail.append(tracker.replacement_misses)
    return trail


@given(tracker_programs())
@settings(max_examples=200, deadline=None)
def test_tracker_matches_reference_operation_for_operation(case):
    bb, nproc, program = case
    bm = BlockMap(bb)
    got = _run_program(LifetimeTracker(nproc, bm), bm, program)
    want = _run_program(ReferenceLifetimeTracker(nproc, bm), bm, program)
    assert got == want


def test_tracker_matches_reference_on_delivered_then_restored_word():
    """A snapshot word stored again after the fetch stays unknown after
    the essential delivery; the others become known."""
    bm = BlockMap(16)
    program = [("store", 1, 0), ("store", 1, 1), ("fetch", 0, 0),
               ("store", 1, 1), ("access", 0, 0), ("invalidate", 0, 0),
               ("access", 0, 1), ("invalidate", 0, 0),
               ("access", 0, 0), ("invalidate", 0, 0)]
    got = _run_program(LifetimeTracker(2, bm), bm, program)
    want = _run_program(ReferenceLifetimeTracker(2, bm), bm, program)
    assert got == want


# ----------------------------------------------------------------------
# whole protocols with the reference tracker patched in
# ----------------------------------------------------------------------
@st.composite
def protocol_cases(draw, max_events=60):
    bb = draw(st.sampled_from(BLOCK_SIZES))
    wpb = bb // 4
    nproc = draw(st.integers(1, MAX_PROCS))
    sync_base = 1 << 20
    events = []
    for _ in range(draw(st.integers(1, max_events))):
        proc = draw(st.integers(0, nproc - 1))
        kind = draw(st.integers(0, 9))
        if kind <= 5:
            events.append((proc, draw(st.sampled_from((LOAD, STORE))),
                           draw(words(wpb))))
        elif kind <= 7:
            events.append((proc, ACQUIRE, sync_base + proc))
        else:
            events.append((proc, RELEASE, sync_base + proc))
    return bb, Trace(events, nproc, validate=False)


NAMED = ("MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX", "WU", "CU")


def _all_results(trace, bb):
    bm = BlockMap(bb)
    results = {name: interpret(name, trace, bb) for name in NAMED}
    sub = min(bb, 16)
    results["SECTOR"] = SectorProtocol(trace.num_procs, bm, sub).run(trace)
    for capacity, ways in ((2, None), (4, 2)):
        results[f"LRU{capacity}/{ways}"] = FiniteOTFProtocol(
            trace.num_procs, bm, capacity, ways).run(trace)
    return results


@given(protocol_cases())
@settings(max_examples=120, deadline=None)
def test_protocols_identical_with_reference_tracker(case):
    bb, trace = case
    got = _all_results(trace, bb)
    with mock.patch.object(protocol_base, "LifetimeTracker",
                           ReferenceLifetimeTracker):
        probe = protocol_base.Protocol(1, BlockMap(bb))
        assert isinstance(probe.tracker, ReferenceLifetimeTracker)
        want = _all_results(trace, bb)
    assert got == want
