"""Unit tests for the WBWI protocol (write-back word invalidate)."""

import pytest

from interpreted import run_all_checked, run_checked
from repro.trace import TraceBuilder
from repro.trace.synth import false_sharing_pingpong, producer_consumer


class TestWordInvalidation:
    def test_clean_word_access_hits(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1)
             .load(0, 0)     # clean word: hit, unlike OTF
             .build())
        wbwi = run_checked("WBWI", t, 8)
        otf = run_checked("OTF", t, 8)
        assert wbwi.misses == 2
        assert otf.misses == 3

    def test_dirty_word_access_misses(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1)
             .load(0, 1)
             .build())
        r = run_checked("WBWI", t, 8)
        assert r.misses == 3
        assert r.breakdown.pts == 1


class TestOwnership:
    def test_store_to_non_owned_dirty_block_misses(self):
        """Section 2.2's ownership rule: ANY pending word forces a miss."""
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1)    # P1 owns; P0's buffer has word 1 pending
             .store(0, 0)    # P0 stores a CLEAN word: still a miss
             .build())
        r = run_checked("WBWI", t, 8)
        assert r.counters.ownership_misses == 1
        assert r.misses == 3

    def test_store_to_owned_block_no_miss(self):
        t = (TraceBuilder(2)
             .store(0, 0)    # P0 owns after this
             .load(1, 0)
             .store(0, 1)    # owner with clean buffer: perform in place
             .build())
        r = run_checked("WBWI", t, 8)
        assert r.counters.ownership_misses == 0
        assert r.misses == 2

    def test_store_with_clean_buffer_no_ownership_miss(self):
        """A non-owner with an empty invalidation buffer upgrades freely."""
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(0, 0)
             .build())
        r = run_checked("WBWI", t, 8)
        assert r.counters.ownership_misses == 0
        assert r.misses == 1

    def test_ownership_transfers_counted(self):
        t = TraceBuilder(2).store(0, 0).store(1, 0).store(0, 0).build()
        r = run_checked("WBWI", t, 4)
        assert r.counters.ownership_transfers == 2


class TestPaperClaims:
    def test_wbwi_equals_min_plus_ownership(self):
        """The only difference between WBWI and MIN is ownership (paper
        section 7.0), so on a write-free sharing pattern they agree."""
        t = (TraceBuilder(3)
             .store(0, 0).store(0, 1).store(0, 2).store(0, 3)
             .load(1, 0).load(2, 1)
             .store(0, 0)
             .load(1, 0).load(2, 1)
             .build())
        res = run_all_checked(t, 16, ["MIN", "WBWI"])
        assert res["WBWI"].misses == res["MIN"].misses \
            + res["WBWI"].counters.ownership_misses

    def test_wbwi_eliminates_read_only_false_sharing(self):
        """Per-word dirty bits leave read-shared neighbours untouched."""
        t = (TraceBuilder(2)
             .load(0, 0)          # P0 reads word 0 forever
             .store(1, 1)
             .load(0, 0)
             .store(1, 1)
             .load(0, 0)
             .build())
        r = run_checked("WBWI", t, 8)
        assert r.breakdown.pfs == 0
        assert r.misses == 2

    def test_write_shared_false_sharing_costs_ownership(self, pingpong_trace):
        """RMW false sharing cannot be fully eliminated: the ownership
        rule forces misses (the WBWI-MIN gap of Figure 6b)."""
        res = run_all_checked(pingpong_trace, 16, ["MIN", "WBWI"])
        assert res["WBWI"].misses > res["MIN"].misses
        assert res["WBWI"].counters.ownership_misses > 0
