"""Unit tests for the protocol base machinery, OTF and MIN."""

import pytest

from interpreted import run_checked
from repro.classify import DuboisClassifier
from repro.errors import ProtocolError
from repro.mem import BlockMap
from repro.protocols import (
    MINProtocol,
    OTFProtocol,
    PROTOCOL_REGISTRY,
)
from repro.protocols.base import Protocol, register
from repro.trace import TraceBuilder
from repro.trace.synth import false_sharing_pingpong, producer_consumer


class TestBaseMachinery:
    def test_has_copy_and_fetch(self):
        p = OTFProtocol(2, BlockMap(8))
        assert not p.has_copy(0, 0)
        p.fetch(0, 0)
        assert p.has_copy(0, 0)

    def test_drop_without_copy_rejected(self):
        p = OTFProtocol(2, BlockMap(8))
        with pytest.raises(ProtocolError):
            p.drop_copy(0, 0)

    def test_iter_procs(self):
        assert list(Protocol.iter_procs(0b1011)) == [0, 1, 3]
        assert list(Protocol.iter_procs(0)) == []

    def test_trace_proc_count_checked(self):
        p = OTFProtocol(1, BlockMap(8))
        t = TraceBuilder(3).load(2, 0).build()
        with pytest.raises(ProtocolError):
            p.run(t)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ProtocolError):
            @register
            class Dup(Protocol):
                name = "OTF"

    def test_registry_contains_all_seven(self):
        assert set(PROTOCOL_REGISTRY) >= {"MIN", "OTF", "RD", "SD", "SRD",
                                          "WBWI", "MAX"}

    def test_nonpositive_procs_rejected(self):
        with pytest.raises(ProtocolError):
            OTFProtocol(0, BlockMap(8))


class TestOTF:
    def test_decomposition_matches_appendix_a(self, random_trace):
        for bb in (4, 16, 64):
            want = DuboisClassifier.classify_trace(random_trace, BlockMap(bb))
            got = run_checked("OTF", random_trace, bb)
            assert got.breakdown.as_dict() == want.as_dict()

    def test_store_invalidates_all_remote_copies(self):
        t = (TraceBuilder(3)
             .load(0, 0).load(1, 0).load(2, 0)
             .store(0, 0)
             .load(1, 0).load(2, 0)
             .build())
        r = run_checked("OTF", t, 4)
        assert r.counters.invalidations_sent == 2
        assert r.breakdown.pts == 2

    def test_upgrade_is_not_a_miss(self):
        t = TraceBuilder(1).load(0, 0).store(0, 0).build()
        r = run_checked("OTF", t, 4)
        assert r.misses == 1

    def test_result_fields(self, random_trace):
        r = run_checked("OTF", random_trace, 16)
        assert r.protocol == "OTF"
        assert r.block_bytes == 16
        assert r.trace_name == random_trace.name
        assert r.misses == r.breakdown.total
        assert 0 < r.miss_rate < 100
        bars = r.fig6_bars()
        assert bars["TOTAL"] == pytest.approx(
            bars["TRUE"] + bars["COLD"] + bars["FALSE"])


class TestMIN:
    def test_min_equals_essential_on_producer_consumer(self):
        t = producer_consumer(4, words=16, rounds=6)
        for bb in (4, 16, 64):
            want = DuboisClassifier.classify_trace(t, BlockMap(bb))
            got = run_checked("MIN", t, bb)
            assert got.misses == want.essential

    def test_min_never_exceeds_essential(self, random_trace):
        for bb in (4, 16, 64, 256):
            want = DuboisClassifier.classify_trace(random_trace, BlockMap(bb))
            got = run_checked("MIN", random_trace, bb)
            assert got.misses <= want.essential

    def test_min_has_no_false_sharing(self, pingpong_trace):
        r = run_checked("MIN", pingpong_trace, 64)
        assert r.breakdown.pfs == 0
        assert r.misses == r.breakdown.essential

    def test_word_invalidation_counted(self):
        t = TraceBuilder(2).load(0, 0).store(1, 1).build()
        r = run_checked("MIN", t, 8)
        assert r.counters.word_invalidations == 1

    def test_write_through_traffic(self):
        t = TraceBuilder(1).store(0, 0).store(0, 0).store(0, 1).build()
        r = run_checked("MIN", t, 8)
        assert r.counters.write_throughs == 3

    def test_access_to_clean_word_of_dirty_block_hits(self):
        """The whole point of word invalidation: no false-sharing miss."""
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1)    # word 1 invalid in P0's copy
             .load(0, 0)     # clean word: HIT
             .build())
        r = run_checked("MIN", t, 8)
        assert r.misses == 2  # just the two cold misses

    def test_access_to_dirty_word_misses_once(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1).store(1, 0)
             .load(0, 1)     # miss; fetch clears BOTH pending words
             .load(0, 0)     # hit
             .build())
        r = run_checked("MIN", t, 8)
        assert r.misses == 3
        assert r.breakdown.pts == 1
