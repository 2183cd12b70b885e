"""Unit tests for the delayed protocols RD, SD and SRD."""

import pytest

from interpreted import run_all_checked, run_checked
from repro.trace import TraceBuilder


class TestRD:
    def test_invalidation_deferred_until_acquire(self):
        t = (TraceBuilder(2)
             .load(0, 0)      # P0 caches the block
             .store(1, 1)     # invalidation sent, buffered at P0
             .load(0, 0)      # still reads the stale copy: HIT
             .acquire(0, 100) # invalidation applied here
             .load(0, 0)      # now misses
             .build())
        r = run_checked("RD", t, 8)
        assert r.misses == 3  # P0 cold, P1 cold, P0 post-acquire

    def test_without_acquire_no_extra_miss(self):
        t = (TraceBuilder(2)
             .load(0, 0).store(1, 1).load(0, 0).load(0, 0)
             .build())
        r = run_checked("RD", t, 8)
        assert r.misses == 2

    def test_receive_combining(self):
        """Several invalidations of one block before the acquire combine
        into a single miss."""
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0).store(1, 1).store(1, 0)
             .acquire(0, 100)
             .load(0, 0)
             .build())
        r = run_checked("RD", t, 8)
        assert r.misses == 3

    def test_store_to_pending_block_is_ownership_miss(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1)     # pending at P0
             .store(0, 0)     # P0 must refetch before writing
             .build())
        r = run_checked("RD", t, 8)
        assert r.counters.ownership_misses == 1
        assert r.misses == 3

    def test_acquire_applies_only_own_buffer(self):
        t = (TraceBuilder(3)
             .load(0, 0).load(2, 0)
             .store(1, 1)      # pending at P0 and P2
             .acquire(0, 100)
             .load(0, 0)       # P0 misses
             .load(2, 0)       # P2 still hits
             .build())
        r = run_checked("RD", t, 8)
        assert r.misses == 4


class TestSD:
    def test_store_to_non_owned_block_is_buffered(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0)      # P1 not owner: buffered, P0 keeps its copy
             .load(0, 0)       # HIT (invalidation not yet sent)
             .build())
        r = run_checked("SD", t, 4)
        assert r.misses == 2
        assert r.counters.stores_buffered == 1

    def test_release_flushes_and_invalidates(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0)
             .release(1, 100)  # flush: P0 invalidated now
             .load(0, 0)       # miss
             .build())
        r = run_checked("SD", t, 4)
        assert r.misses == 3

    def test_owner_stores_complete_immediately(self):
        t = (TraceBuilder(2)
             .store(0, 0)
             .release(0, 100)  # P0 becomes owner at the flush
             .load(1, 0)
             .store(0, 0)      # owner: performed without delay
             .load(1, 0)       # misses immediately
             .build())
        r = run_checked("SD", t, 4)
        assert r.misses == 3
        assert r.counters.stores_buffered == 1  # only the first store

    def test_send_combining_counts(self):
        t = (TraceBuilder(2)
             .store(1, 0).store(1, 1).store(1, 0)
             .release(1, 100)
             .build())
        r = run_checked("SD", t, 8)
        assert r.counters.stores_buffered == 3
        assert r.counters.stores_combined == 2

    def test_end_of_trace_flushes(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0)      # buffered, never released
             .build())
        r = run_checked("SD", t, 4)
        # the end-of-run flush invalidates P0's live copy; classification
        # still happens exactly once per lifetime
        assert r.breakdown.total == r.misses == 2


class TestSRD:
    def test_combines_both_delays(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0)       # buffered at sender
             .load(0, 0)        # hit
             .release(1, 100)   # sent; buffered at P0
             .load(0, 0)        # still hit!
             .acquire(0, 100)   # applied
             .load(0, 0)        # miss
             .build())
        r = run_checked("SRD", t, 4)
        assert r.misses == 3

    def test_store_to_pending_block_ownership_miss(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1).release(1, 100)   # pending at P0
             .store(0, 0)                   # refetch for ownership
             .build())
        r = run_checked("SRD", t, 8)
        assert r.counters.ownership_misses == 1

    def test_srd_never_worse_than_rd_or_sd_here(self, producer_trace):
        res = run_all_checked(producer_trace, 16, ["RD", "SD", "SRD"])
        assert res["SRD"].misses <= res["RD"].misses
        assert res["SRD"].misses <= res["SD"].misses


class TestEssentialComponentsStable:
    def test_cold_and_pts_match_across_delayed_protocols(self, producer_trace):
        """Paper section 7: 'The differences between the essential miss
        rates of OTF, RD, SD and SRD are negligible' — on clean
        producer/consumer sharing they are identical."""
        res = run_all_checked(producer_trace, 16, ["OTF", "RD", "SD", "SRD"])
        colds = {r.breakdown.cold for r in res.values()}
        assert len(colds) == 1
