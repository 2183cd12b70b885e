"""Unit tests for the MAX worst-case invalidation schedule."""

import pytest

from interpreted import run_all_checked, run_checked
from repro.trace import TraceBuilder
from repro.trace.synth import (
    false_sharing_pingpong,
    migratory,
    producer_consumer,
    uniform_random,
)


class TestWindows:
    def test_invalidation_delayed_to_kill_later_copy(self):
        """A store's invalidation may be performed any time before the
        storer's next release — including after the victim refetches."""
        t = (TraceBuilder(2)
             .load(0, 0)       # P0 caches
             .store(1, 0)      # window open until P1's release
             .load(0, 0)       # adversary kills P0's copy: miss
             .load(0, 0)       # the same store cannot kill twice
             .release(1, 100)
             .load(0, 0)       # window closed: hit
             .build())
        r = run_checked("MAX", t, 4)
        assert r.misses == 3

    def test_two_stores_kill_twice(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0).store(1, 0)
             .load(0, 0)      # kill 1
             .load(0, 0)      # kill 2 (second store's invalidation saved)
             .load(0, 0)      # out of ammunition: hit
             .build())
        r = run_checked("MAX", t, 4)
        assert r.misses == 4

    def test_release_bounds_the_window(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0)
             .release(1, 100)   # the invalidation must land by here
             .load(0, 0)        # forced kill happened: miss
             .load(0, 0)        # hit
             .build())
        r = run_checked("MAX", t, 4)
        assert r.misses == 3

    def test_invalidation_targets_every_holder(self):
        t = (TraceBuilder(3)
             .load(0, 0).load(2, 0)
             .store(1, 0)
             .load(0, 0).load(2, 0)
             .build())
        r = run_checked("MAX", t, 4)
        assert r.misses == 5  # one kill per holder from a single store

    def test_own_store_does_not_kill_self(self):
        t = TraceBuilder(1).load(0, 0).store(0, 0).load(0, 0).build()
        r = run_checked("MAX", t, 4)
        assert r.misses == 1


class TestDominance:
    @pytest.mark.parametrize("make_trace", [
        lambda: false_sharing_pingpong(4, rounds=30),
        lambda: migratory(4, words=8, rounds=25),
        lambda: producer_consumer(4, words=12, rounds=6),
        lambda: uniform_random(6, words=64, num_events=4000, seed=5),
    ])
    @pytest.mark.parametrize("block_bytes", [4, 16, 64])
    def test_max_at_least_otf(self, make_trace, block_bytes):
        t = make_trace()
        res = run_all_checked(t, block_bytes, ["OTF", "MAX"])
        assert res["MAX"].misses >= res["OTF"].misses

    def test_max_exploits_large_blocks(self, pingpong_trace):
        """Ping-pong amplification: MAX nearly doubles OTF on write-shared
        blocks because each store's invalidation lands just before the
        owner's own next access."""
        res = run_all_checked(pingpong_trace, 16, ["OTF", "MAX"])
        assert res["MAX"].misses > 1.5 * res["OTF"].misses


class TestAccounting:
    def test_invalidations_spent_counted(self):
        t = (TraceBuilder(2)
             .load(0, 0).store(1, 0).load(0, 0).build())
        r = run_checked("MAX", t, 4)
        assert r.counters.invalidations_sent == 1

    def test_token_groups_merge_same_deadline(self):
        # many stores in one window: miss count still bounded by accesses
        b = TraceBuilder(2).load(0, 0)
        for _ in range(100):
            b.store(1, 0)
        for _ in range(5):
            b.load(0, 0)
        r = run_checked("MAX", b.build(), 4)
        assert r.misses == 1 + 1 + 5  # both colds + every P0 reload killed
