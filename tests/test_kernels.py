"""Differential and integration tests for the vectorized kernel layer.

The streaming classifiers/protocols are the oracle: every test here
checks that `repro.kernels` reproduces their counters bit-for-bit — over
the real workload generators, over hypothesis-random traces (sync events
included), under arbitrary range cuts through the engine, and
through the CLI.  Integration tests cover the resolution contract, the
checkpoint kernel binding, heartbeat granularity and the stall watchdog.
"""

import functools
import gc
import operator
import os
import time
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

import hypothesis.strategies as st
from hypothesis import given, settings

from interpreted import run_checked, run_finite_checked
from repro.analysis.engine import SharedPrecompute, SweepEngine
from repro.classify.compare import compare_classifications
from repro.classify.dubois import DuboisClassifier
from repro.classify.eggers import EggersClassifier
from repro.classify.torrellas import TorrellasClassifier
from repro.errors import ConfigError, StaleJournalError
from repro.kernels import (
    CLASSIFIER_KERNELS,
    PROTOCOL_KERNELS,
    KernelContext,
    effective_kernel_mode,
    has_kernel,
    plan_batches,
    resolve_kernel,
    validate_kernel_mode,
)
from repro.kernels import finite as kernel_finite
from repro.kernels import protocols as kernel_protocols
from repro.kernels.classifiers import SyncTable, dubois_kernel
from repro.kernels.protocols import run_kernel_cells
from repro.mem.addresses import PAPER_BLOCK_SIZES, BlockMap
from repro.protocols.finite import FiniteOTFProtocol, finite_spec
from repro.protocols.results import merge_shard_results
from repro.protocols.runner import make_protocol, run_protocols
from repro.runtime import signals
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.retry import RetryPolicy
from repro.runtime.supervisor import Supervisor
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace
from repro.workloads.registry import make_workload

#: One representative of each workload generator family.
FAMILIES = ("MP3D200", "WATER16", "JACOBI64", "FFT256", "LU32",
            "MATMUL24", "SOR64")
BLOCK_SIZES = (16, 64, 256)

_trace_cache = {}


def family_trace(name):
    if name not in _trace_cache:
        _trace_cache[name] = make_workload(name).generate()
    return _trace_cache[name]


def kernel_context(trace):
    """A context over the trace's data rows carrying its sync table."""
    cols = trace.columns()
    data = cols.data_only()
    return KernelContext(data.proc, data.op, data.addr, trace.num_procs,
                         cols.data_indices(), SyncTable.from_columns(cols, trace.num_procs))


# ----------------------------------------------------------------------
# differential suite: kernels == streaming oracles, bit for bit
# ----------------------------------------------------------------------
ORACLES = {"dubois": DuboisClassifier, "eggers": EggersClassifier,
           "torrellas": TorrellasClassifier}


class TestDifferentialWorkloads:
    @pytest.mark.parametrize("workload", FAMILIES)
    def test_classifier_kernels_match_oracles(self, workload):
        trace = family_trace(workload)
        ctx = kernel_context(trace)
        for bb in BLOCK_SIZES:
            bm = BlockMap(bb)
            for which, kernel in CLASSIFIER_KERNELS.items():
                expected = ORACLES[which].classify_trace(trace, bm)
                assert kernel(ctx, bm) == expected, (workload, bb, which)

    @pytest.mark.parametrize("workload", FAMILIES)
    def test_protocol_kernels_match_oracles(self, workload):
        trace = family_trace(workload)
        ctx = kernel_context(trace)
        for bb in BLOCK_SIZES:
            bm = BlockMap(bb)
            for name, kernel in PROTOCOL_KERNELS.items():
                expected = make_protocol(name, trace.num_procs,
                                         bm).run(trace)
                got = kernel(ctx, bm, trace_name=trace.name)
                assert got == expected, (workload, bb, name)

    @pytest.mark.parametrize("workload", ("LU32", "MP3D200", "WATER16"))
    @pytest.mark.parametrize("name", ("MAX", "SD", "SRD"))
    def test_delayed_kernels_match_oracles_at_1024(self, workload, name):
        """The deepest MAX schedules: at B=1024 LU32's groups hold up to
        630 earliest-deadline entries, none in deadline order, and
        MP3D200's up to 45."""
        trace = family_trace(workload)
        bm = BlockMap(1024)
        expected = make_protocol(name, trace.num_procs, bm).run(trace)
        got = PROTOCOL_KERNELS[name](kernel_context(trace), bm,
                                     trace_name=trace.name)
        assert got == expected, (workload, name)


# ----------------------------------------------------------------------
# hypothesis: random traces (sync included), arbitrary range cuts
# ----------------------------------------------------------------------
MAX_PROCS = 4
MAX_WORDS = 16


@st.composite
def traces(draw, max_events=60):
    """Random interleaved traces *including* ACQUIRE/RELEASE rows."""
    n = draw(st.integers(1, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    events = [
        (draw(st.integers(0, nproc - 1)),
         draw(st.sampled_from((LOAD, LOAD, STORE, STORE, ACQUIRE,
                               RELEASE))),
         draw(st.integers(0, MAX_WORDS - 1)))
        for _ in range(n)
    ]
    return Trace(events, nproc, validate=False)


GRID = [("classify", 8, "dubois"), ("classify", 16, "eggers"),
        ("classify", 8, "torrellas"), ("compare", 16, None),
        ("protocol", 8, "OTF"), ("protocol", 8, "MIN"),
        ("protocol", 16, "WBWI"), ("protocol", 8, "RD"),
        ("protocol", 16, "MAX"), ("protocol", 8, "SD"),
        ("protocol", 16, "SRD"), ("finite", 8, "c4w2"),
        ("finite", 16, "c2")]


@given(traces(), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_engine_grids_match_under_arbitrary_shardings(trace, shards):
    """vectorized+sharded == interpreted+serial through the engine.

    Exercises the full integration surface per example: the kernel
    cells as one group task per range of their 7-row-batch plan, each
    one ``run_kernel_cells`` pass, the finite cells' ranges by cache
    set, and ``merge_shard_results`` / breakdown addition over an
    arbitrary range count.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", 7)
        vec = SweepEngine(trace, jobs=1, shards=shards,
                          kernel="vectorized").run_grid(GRID)
    ref = SweepEngine(trace, jobs=1, shards=1,
                      kernel="interpreted").run_grid(GRID)
    assert vec == ref


@given(traces(max_events=40))
@settings(max_examples=30, deadline=None)
def test_kernels_match_oracles_on_random_traces(trace):
    ctx = kernel_context(trace)
    for bb in (4, 8, 32):
        bm = BlockMap(bb)
        for which, kernel in CLASSIFIER_KERNELS.items():
            assert kernel(ctx, bm) == ORACLES[which].classify_trace(
                trace, bm), (bb, which)
        for name, kernel in PROTOCOL_KERNELS.items():
            got = kernel(ctx, bm,
                         trace_name=trace.name or "<anonymous>")
            assert got == make_protocol(
                name, trace.num_procs, bm).run(trace), (bb, name)


def _finite_matches_oracle(trace):
    for bb in (4, 16):
        bm = BlockMap(bb)
        for capacity, ways in ((4, 1), (4, 2), (6, None)):
            want = FiniteOTFProtocol(trace.num_procs, bm, capacity,
                                     ways=ways).run(trace)
            (got,) = run_kernel_cells(
                trace.columns(), trace.num_procs,
                [("finite", bb, finite_spec(capacity, ways))],
                trace_name=trace.name or "<anonymous>")
            assert got == want, (bb, capacity, ways)


@given(traces())
@settings(max_examples=40, deadline=None)
def test_finite_kernel_matches_oracle_on_random_traces(trace):
    """Direct-mapped, 2-way and fully associative caches, in one batch
    and in 7-row batches of whole sets."""
    _finite_matches_oracle(trace)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", 7)
        _finite_matches_oracle(trace)


class TestFiniteKernel:
    """Hand-worked finite caches at B=4 (one word a block, so a block is
    its address); each result is the simulator's, and the default
    (kernel) path must match it."""

    def test_remote_store_to_an_evicted_block(self):
        """P0 evicts block 0, then P1 stores to it.  P0 holds no copy,
        so nothing is invalidated and block 0 stays replaced: P0's
        reload is a replacement miss, not a coherence miss."""
        events = [(0, LOAD, 0), (0, LOAD, 1), (1, STORE, 0), (0, LOAD, 0)]
        r = run_finite_checked(Trace(events, 2, validate=False), 4, 1)
        assert r.replacement_misses == 1
        assert r.breakdown.pts + r.breakdown.pfs == 0
        assert r.counters.invalidations_sent == 0
        assert r.counters.replacements == 2
        assert r.misses == 4

    def test_invalidation_frees_a_way(self):
        """P1's store drops P0's copy of block 0, so P0's third block
        fits without an eviction and block 1 still hits."""
        events = [(0, LOAD, 0), (0, LOAD, 1), (1, STORE, 0), (0, LOAD, 2),
                  (0, LOAD, 1)]
        r = run_finite_checked(Trace(events, 2, validate=False), 4, 2)
        assert r.counters.replacements == 0
        assert r.counters.invalidations_applied == 1
        assert r.counters.invalidations_sent == 1
        assert r.replacement_misses == 0
        assert r.misses == 4  # every miss cold

    def test_victim_never_touched_again(self):
        """Evictions count victims, replacement misses only re-fetches:
        block 0 is evicted and never reloaded."""
        events = [(0, LOAD, 0), (0, STORE, 1), (0, LOAD, 2), (0, LOAD, 2)]
        r = run_finite_checked(Trace(events, 1, validate=False), 4, 2)
        assert r.counters.replacements == 1
        assert r.replacement_misses == 0
        assert r.counters.replacements > r.replacement_misses

    def test_direct_mapped(self):
        """Two one-way sets: blocks 0 and 2 share set 0 and evict each
        other, block 1 stays in set 1."""
        events = [(0, LOAD, 0), (0, LOAD, 1), (0, LOAD, 2), (0, LOAD, 1),
                  (0, LOAD, 0)]
        r = run_finite_checked(Trace(events, 1, validate=False), 4, 2,
                               ways=1)
        assert r.counters.replacements == 2
        assert r.replacement_misses == 1
        assert r.misses == 4
        assert r.counters.fetches == 4

    def test_fully_associative_set_larger_than_a_batch(self, monkeypatch):
        """A fully associative cache is one set, so one batch holds every
        row however small ``BATCH_ROWS`` is."""
        monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 7)
        events = [(p, STORE if i % 3 == 0 else LOAD, (i + p) % 3)
                  for i in range(8) for p in range(2)]
        trace = Trace(events, 2, validate=False)
        n = len(events)
        _, ends = kernel_protocols._plan_rows(
            np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool))
        assert np.diff(ends).tolist() == [n]
        r = run_finite_checked(trace, 4, 2)
        assert r.replacement_misses > 0


def sync_positions(ctx, op):
    """``[procs, positions]`` of the trace's ``op`` rows that follow a
    row of ``ctx``'s batch, in trace order, each position counting the
    batch rows before it — walked through the shared table's lookups."""
    found = []
    for p in range(ctx.num_procs):
        t = -1
        while True:
            t = int(ctx.sync.first_after(op, [p], [t])[0])
            if t >= ctx.sync.end:
                break
            found.append((t, p))
    found.sort()
    pos = np.searchsorted(ctx.rows, [t for t, _ in found]).tolist()
    kept = [(p, at) for (_, p), at in zip(found, pos) if at > 0]
    return [[p for p, _ in kept], [at for _, at in kept]]


class TestKernelContextAcquires:
    def test_helper_context_carries_acquires(self):
        """Acquire and release positions count the data rows before each
        sync row."""
        events = [(0, LOAD, 0), (1, ACQUIRE, 9), (1, STORE, 0),
                  (0, RELEASE, 9), (0, ACQUIRE, 9), (1, LOAD, 4),
                  (1, ACQUIRE, 9), (1, RELEASE, 9)]
        ctx = kernel_context(Trace(events, 2, validate=False))
        assert ctx.n == 3
        assert ctx.rows.tolist() == [0, 2, 5]
        assert sync_positions(ctx, ACQUIRE) == [[1, 0, 1], [1, 2, 3]]
        assert sync_positions(ctx, RELEASE) == [[0, 1], [2, 3]]
        assert ctx.sync.latest(ACQUIRE, [1, 1, 0], [6, 7, 4]).tolist() == [
            1, 6, -1]
        assert ctx.sync.first_after(RELEASE, [0, 1], [3, 7]).tolist() == [
            8 + 0, 8 + 1]  # none: the end-of-trace flush keys

    def test_family_context_carries_every_acquire(self):
        trace = family_trace("FFT256")
        ctx = kernel_context(trace)
        counts = trace.counts()
        assert len(ctx.sync.rows(ACQUIRE)) == counts.acquires
        assert len(ctx.sync.rows(RELEASE)) == counts.releases
        assert counts.acquires > 0 and counts.releases > 0
        assert np.all(np.diff(ctx.sync.keys) > 0)

    def test_batch_releases_are_remapped_on_first_use(self):
        """Every batch shares the trace's one table and reads it in its
        own row positions; a sync row before its first row is none of
        its business."""
        events = [(0, LOAD, 0), (1, RELEASE, 9), (1, STORE, 64),
                  (0, RELEASE, 9), (0, LOAD, 0), (1, LOAD, 64)]
        cols = Trace(events, 2, validate=False).columns()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_protocols, "BATCH_ROWS", 2)
            ctxs = list(kernel_protocols._batch_contexts(
                cols, 2, plan_batches(cols, 4).batches()))
        assert [c.n for c in ctxs] == [2, 2]
        assert ctxs[0].sync is ctxs[1].sync
        # Block 0 (rows 0, 4): both releases fall between its rows.
        assert sync_positions(ctxs[0], RELEASE) == [[1, 0], [1, 1]]
        # Block 4 (rows 2, 5): P1's release precedes it, and is dropped.
        assert sync_positions(ctxs[1], RELEASE) == [[0], [1]]
        # P1's store at row 2 flushes at its next release: none, so the
        # end-of-trace flush, past the batch.
        view = ctxs[1].block_view(4)
        flush = kernel_protocols._flush_keys(view)
        assert flush.tolist() == [6 + 1]
        assert np.searchsorted(ctxs[1].rows, flush).tolist() \
            == [2]


def test_min_kernel_on_the_appendix_a_corner_case():
    """EXPERIMENTS.md, "MIN vs Appendix A": MIN's whole-block fetch
    delivers a value Appendix A only counts at a later miss."""
    events = [(0, STORE, 0), (1, STORE, 3), (0, STORE, 3), (1, STORE, 0)]
    trace = Trace(events, 2, validate=False)
    bm = BlockMap(16)
    got = PROTOCOL_KERNELS["MIN"](kernel_context(trace), bm,
                                  trace_name="<anonymous>")
    assert got == make_protocol("MIN", 2, bm).run(trace)
    assert got.misses == 3
    assert DuboisClassifier.classify_trace(trace, bm).essential == 4


class TestMaxKernel:
    """Hand-worked MAX schedules at B=8; each result is the simulator's,
    and the default (kernel) path must match it."""

    def test_expired_tokens_burn_on_one_miss(self):
        """Three stores whose windows all closed before P0's reload:
        their invalidations must all land by then, so they kill one copy
        between them (one miss, three sent)."""
        events = [(0, LOAD, 0), (1, STORE, 0), (1, STORE, 0),
                  (2, STORE, 0), (1, RELEASE, 99), (2, RELEASE, 98),
                  (0, LOAD, 0), (0, LOAD, 0)]
        r = run_checked("MAX", Trace(events, 3, validate=False), 8)
        assert r.misses == 4  # three cold, one burn; the last load hits
        assert r.counters.invalidations_sent == 3
        assert r.counters.invalidations_applied == 1
        assert r.counters.fetches == 4

    def test_group_opening_with_a_store(self):
        """P0's first access is a store: P1's earlier store (never
        released) still kills P0's copy once, and P0's own store is no
        token against P0 — only against P1."""
        events = [(1, STORE, 0), (0, STORE, 0), (0, LOAD, 0), (0, LOAD, 0),
                  (1, LOAD, 0)]
        r = run_checked("MAX", Trace(events, 2, validate=False), 8)
        assert r.misses == 4  # two cold, P0's first reload, P1's reload
        assert r.counters.invalidations_sent == 2

    def test_two_releases_between_the_same_batch_rows(self, monkeypatch):
        """In 7-row batches blocks 0 and 32 run apart: block 0's batch
        sees three releases between its last two rows, block 32's two
        between its first two.  Both deadlines of block 0 close before
        P0's reload; P1's store to block 32 expires before P0 first
        touches it."""
        monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 7)
        events = [(0, LOAD, 0), (1, STORE, 0), (2, STORE, 0),
                  (1, RELEASE, 99), (1, STORE, 64), (1, RELEASE, 99),
                  (2, RELEASE, 98), (0, LOAD, 0)] + [(0, LOAD, 64)] * 4
        trace = Trace(events, 3, validate=False)
        cols = trace.columns()
        ctxs = list(kernel_protocols._batch_contexts(
            cols, 3, plan_batches(cols, BlockMap(8).offset_bits).batches()))
        assert [sync_positions(c, RELEASE)[1] for c in ctxs] == [
            [3, 3, 3], [1, 1]]
        # Each store's deadline (its flush): P1's and P2's stores to
        # block 0 both close at position 3, P1's to block 32 at 1.
        flush = kernel_protocols._flush_keys
        assert [np.searchsorted(c.rows, flush(c.block_view(1))).tolist()
                for c in ctxs] == [[3, 3], [1]]
        r = run_checked("MAX", trace, 8)
        assert r.misses == 6  # four cold, one burn of two
        assert r.counters.invalidations_sent == 2


class TestSendDelayedKernel:
    """Hand-worked SD and SRD runs at B=8 (two words a block); each
    result is the simulator's, and the default (kernel) path must match
    it."""

    def test_owner_prefix_cut_by_another_writers_flush(self):
        """P0 owns block 0 after its first release, so its next store is
        immediate; P1's flush takes the block over before P0's next two
        stores, which are buffered and combine."""
        events = [(0, STORE, 0), (0, RELEASE, 9), (0, STORE, 0),
                  (1, STORE, 1), (1, RELEASE, 9), (0, STORE, 1),
                  (0, STORE, 0), (0, RELEASE, 9), (1, LOAD, 1)]
        r = run_checked("SD", Trace(events, 2, validate=False), 8)
        assert r.counters.stores_buffered == 4  # all but the second
        assert r.counters.stores_combined == 1
        assert r.counters.ownership_transfers == 2  # three flushes
        assert r.misses == 4  # two cold, one after each other's flush
        assert r.counters.invalidations_sent == 2
        assert r.counters.invalidations_applied == 2

    def test_stores_buffered_to_the_end(self):
        """P0 never releases: its two stores combine, P1 keeps reading
        its copy, and the end-of-trace flush invalidates it — dropping it
        under SD, leaving it pending under SRD."""
        events = [(1, LOAD, 0), (0, STORE, 0), (0, STORE, 1), (1, LOAD, 0)]
        trace = Trace(events, 2, validate=False)
        sd, srd = run_checked("SD", trace, 8), run_checked("SRD", trace, 8)
        for r in (sd, srd):
            assert r.misses == 2
            assert r.counters.stores_buffered == 2
            assert r.counters.stores_combined == 1
            assert r.counters.ownership_transfers == 0
            assert r.counters.invalidations_sent == 1
        assert sd.counters.invalidations_applied == 1
        assert srd.counters.invalidations_applied == 0

    def test_two_releases_between_the_same_batch_rows(self, monkeypatch):
        """In 7-row batches block 0's batch sees three releases between
        two of its rows.  Their flushes run in trace order, so P2 — not
        P1 — owns block 0 afterwards and its next store is immediate."""
        monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 7)
        events = [(0, LOAD, 0), (1, STORE, 0), (2, STORE, 0),
                  (1, RELEASE, 99), (1, STORE, 64), (1, RELEASE, 99),
                  (2, RELEASE, 98), (0, LOAD, 0), (2, STORE, 1),
                  (0, LOAD, 0)] + [(0, LOAD, 64)] * 4
        trace = Trace(events, 3, validate=False)
        cols = trace.columns()
        ctxs = list(kernel_protocols._batch_contexts(
            cols, 3, plan_batches(cols, BlockMap(8).offset_bits).batches()))
        assert [sync_positions(c, RELEASE)[1] for c in ctxs] == [
            [3, 3, 3], [1, 1]]
        # Each store's flush: P1's and P2's first stores to block 0 at
        # position 3, P2's second at the end of the trace (position 6,
        # the batch's end), P1's store to block 32 at 1.
        assert [np.searchsorted(c.rows, kernel_protocols._flush_keys(c.block_view(1)))
                .tolist() for c in ctxs] == [[3, 3, 6], [1]]
        for name in ("SD", "SRD"):
            r = run_checked(name, trace, 8)
            assert r.counters.stores_buffered == 3, name
            assert r.counters.ownership_transfers == 1, name
        assert run_checked("SD", trace, 8).misses == 8

    def test_srd_ownership_miss_on_a_flushed_block(self):
        """P1's store is buffered; its flush makes P0's copy pending, so
        P0's store refetches (an ownership miss) although no store was
        performed while P0 held the copy's fetch."""
        events = [(0, LOAD, 0), (1, STORE, 1), (1, RELEASE, 9),
                  (0, STORE, 0), (0, RELEASE, 9)]
        r = run_checked("SRD", Trace(events, 2, validate=False), 8)
        assert r.misses == 3
        assert r.counters.ownership_misses == 1
        assert r.counters.invalidations_sent == 2
        assert r.counters.invalidations_applied == 1
        assert r.counters.ownership_transfers == 1
        assert r.breakdown.pfs == 1  # P0 never reads P1's word

    def test_a_racing_load_reads_the_unperformed_value(self):
        """P1's cold miss races P0's buffered store: it fetches the old
        value, so it is PC, and the miss after P0's flush is the
        essential one.  Reading the newest remote *store* instead of the
        newest perform would make the first CTS and the second PFS."""
        events = [(0, STORE, 0), (1, LOAD, 0), (0, RELEASE, 9),
                  (1, LOAD, 0)]
        r = run_checked("SD", Trace(events, 2, validate=False), 8)
        assert (r.breakdown.pc, r.breakdown.cts, r.breakdown.pts,
                r.breakdown.pfs) == (2, 0, 1, 0)


# ----------------------------------------------------------------------
# batching: whole-block batches of at most BATCH_ROWS rows
# ----------------------------------------------------------------------
RUNNER_SIZES = (4, 8, 16, 32, 64, 256, 1024, 4096)


def _cell_oracle(trace, cell):
    """One grid cell's result from its streaming oracle."""
    kind, bb, which = cell
    if kind == "protocol":
        return make_protocol(which, trace.num_procs, BlockMap(bb)).run(trace)
    if kind == "classify":
        return ORACLES[which].classify_trace(trace, BlockMap(bb))
    return compare_classifications(trace, bb)


#: Random sets of protocol, classify and compare cells at 4-4096 B.
KERNEL_CELLS = st.lists(st.one_of(
    st.tuples(st.just("protocol"), st.sampled_from(RUNNER_SIZES),
              st.sampled_from(sorted(PROTOCOL_KERNELS))),
    st.tuples(st.just("classify"), st.sampled_from(RUNNER_SIZES),
              st.sampled_from(sorted(CLASSIFIER_KERNELS))),
    st.tuples(st.just("compare"), st.sampled_from(RUNNER_SIZES),
              st.none())), min_size=1, max_size=6)


def _batched_matches_oracles(trace, cells, shards=1):
    """Every cell of one :func:`run_kernel_cells` pass equals its own
    oracle; with ``shards`` > 1, the parts of the passes over each range
    of a plan cut into ``shards`` ranges merge to it."""
    name = trace.name or "<anonymous>"
    cols = trace.columns()
    plan = plan_batches(cols, BlockMap(max(c[1] for c in cells)).offset_bits,
                        ranges=shards)
    parts = [run_kernel_cells(cols, trace.num_procs, cells, trace_name=name,
                              plan=plan, shard=s)
             for s in range(plan.num_ranges)]
    for cell, got in zip(cells, zip(*parts)):
        merged = (merge_shard_results(got) if cell[0] == "protocol"
                  else functools.reduce(operator.add, got))
        assert merged == _cell_oracle(trace, cell), (cell, shards)


@given(traces(), KERNEL_CELLS, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_tiny_batches_match_oracles_on_random_traces(trace, cells, shards):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", 7)
        _batched_matches_oracles(trace, cells, shards)


def test_tiny_batches_match_oracles_on_a_family_trace(monkeypatch):
    monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 7)
    cells = ([("protocol", bb, name) for bb in (16, 64)
              for name in PROTOCOL_KERNELS]
             + [("classify", 16, "eggers"), ("compare", 64, None)])
    _batched_matches_oracles(family_trace("FFT256"), cells)
    _batched_matches_oracles(family_trace("FFT256"), cells[:3], shards=2)


def test_one_runner_pass_builds_each_batch_context_once(monkeypatch):
    """Cells run inside the batch loop: one context per batch, whatever
    the number of cells, and none outlives its batch.  The plan is cut at
    the cells' largest block."""
    import weakref

    monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 64)
    built = []
    original = kernel_protocols.KernelContext

    class Counting(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive = sum(ref() is not None for ref in built)
            assert alive == 0, "a batch context outlived its batch"
            built.append(weakref.ref(self))

    monkeypatch.setattr(kernel_protocols, "KernelContext", Counting)
    trace = family_trace("MATMUL24")
    cells = [("classify", bb, "dubois") for bb in (4, 64, 1024)] + [
        ("protocol", 64, "OTF"), ("compare", 32, None)]
    got = run_kernel_cells(trace.columns(), trace.num_procs, cells,
                           trace_name=trace.name)
    assert [_cell_oracle(trace, c) for c in cells] == got
    one = len(built)
    built.clear()
    run_kernel_cells(trace.columns(), trace.num_procs, cells[2:3],
                     trace_name=trace.name)  # the same 1 KiB plan
    assert one == len(built) > 1


@st.composite
def sync_dense_traces(draw):
    """Traces whose data rows are separated by bursts of acquires and
    releases by several processors, interleaved: a batch of a few rows
    sees many sync rows between the same two of its rows."""
    nproc = draw(st.integers(2, MAX_PROCS))
    proc = st.integers(0, nproc - 1)
    events = []
    for _ in range(draw(st.integers(1, 40))):
        events.append((draw(proc), draw(st.sampled_from((LOAD, STORE))),
                       draw(st.integers(0, MAX_WORDS - 1))))
        burst = draw(st.lists(st.tuples(
            proc, st.sampled_from((ACQUIRE, RELEASE))), max_size=6))
        events.extend((p, op, 99) for p, op in burst)
    return Trace(events, nproc, validate=False)


#: The four schedules that read the sync rows, at three block sizes.
SYNC_CELLS = [("protocol", bb, name) for bb in (4, 8, 16)
              for name in ("RD", "SD", "SRD", "MAX")]


@given(sync_dense_traces(), st.sampled_from((1, 2, 3, 7)),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_sync_dense_traces_match_oracles(trace, batch_rows, shards):
    """RD, SD, SRD and MAX equal their simulators on sync-dense traces,
    in tiny batches cut into arbitrary ranges."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", batch_rows)
        _batched_matches_oracles(trace, SYNC_CELLS, shards)


@st.composite
def deadline_stress_traces(draw):
    """One reader (P0) re-reads a block while two or three writers
    store bursts to it and interleave their releases, so a later store
    can carry an earlier deadline: several out-of-order deadline classes
    pend at once.  The reader acquires now and then (SRD)."""
    writers = draw(st.integers(2, 3))
    writer = st.integers(1, writers)
    word = st.integers(0, 3)
    events = []
    for _ in range(draw(st.integers(4, 40))):
        kind = draw(st.sampled_from(("read", "read", "burst", "release",
                                     "acquire")))
        if kind == "read":
            events.append((0, LOAD, draw(word)))
        elif kind == "burst":
            w = draw(writer)
            events.extend((w, STORE, draw(word))
                          for _ in range(draw(st.integers(1, 4))))
        elif kind == "release":
            events.append((draw(writer), RELEASE, 99))
        else:
            events.append((0, ACQUIRE, 99))
    return Trace(events, writers + 1, validate=False)


#: MAX and the delayed schedules over one block (B=16) and two (B=8).
STRESS_CELLS = [("protocol", bb, name) for bb in (8, 16)
                for name in ("MAX", "SD", "SRD")]


@given(deadline_stress_traces())
@settings(max_examples=80, deadline=None)
def test_deadline_stress_traces_match_oracles(trace):
    ctx = kernel_context(trace)
    for _, bb, name in STRESS_CELLS:
        bm = BlockMap(bb)
        got = PROTOCOL_KERNELS[name](ctx, bm, trace_name="<anonymous>")
        assert got == make_protocol(name, trace.num_procs,
                                    bm).run(trace), (bb, name)


@given(deadline_stress_traces(), st.sampled_from((1, 2, 3, 7)),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_deadline_stress_traces_in_tiny_batches(trace, batch_rows, shards):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", batch_rows)
        _batched_matches_oracles(trace, STRESS_CELLS, shards)


def test_sd_and_srd_share_one_perform_resolution(monkeypatch):
    """One pass builds one perform resolution per (batch, block size),
    whichever of SD and SRD asks first, and dropping the block size's
    view frees it at once (no cycle keeps it).  Every cell still credits
    exactly its rows."""
    import weakref

    from repro.kernels import classifiers

    monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 256)
    built = []
    init = kernel_protocols._Performs.__init__

    def counting(self, view, hb):
        init(self, view, hb)
        built.append((view.offset_bits, weakref.ref(self)))

    monkeypatch.setattr(kernel_protocols._Performs, "__init__", counting)
    drop = classifiers.KernelContext.drop_block_view
    freed = []

    def dropping(self, offset_bits):
        drop(self, offset_bits)
        gc.disable()
        try:
            freed.append(all(ref() is None for bits, ref in built
                             if bits == offset_bits))
        finally:
            gc.enable()

    monkeypatch.setattr(classifiers.KernelContext, "drop_block_view",
                        dropping)
    ticks = []
    orig = signals.note_progress
    monkeypatch.setattr(signals, "note_progress",
                        lambda n=1: (ticks.append(n), orig(n)))
    trace = family_trace("WATER16")
    cols = trace.columns()
    cells = [("protocol", 64, "SD"), ("protocol", 64, "MAX"),
             ("protocol", 64, "SRD"), ("protocol", 16, "SRD"),
             ("protocol", 16, "SD")]
    stats = [{} for _ in cells]
    got = run_kernel_cells(cols, trace.num_procs, cells,
                           trace_name=trace.name, stats=stats)
    rows = len(cols.data_only())
    assert sum(ticks) == len(cells) * rows
    assert [st["rows"] for st in stats] == [rows] * len(cells)
    batches = len(plan_batches(cols, BlockMap(64).offset_bits).ends) - 1
    assert batches > 1
    assert len(built) == 2 * batches
    assert freed and all(freed)
    assert got == [_cell_oracle(trace, c) for c in cells]


def _cell_peak(name, trace):
    """Peak traced allocation of one batched ``name`` cell at B=64
    (``OTF-finite``: a 64-block 4-way cache)."""
    cols = trace.columns()
    gc.collect()
    tracemalloc.start()
    try:
        cell = (("finite", 64, "c64w4") if name == "OTF-finite"
                else ("protocol", 64, name))
        run_kernel_cells(cols, trace.num_procs, [cell],
                         trace_name=trace.name)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_cell_memory_is_bounded_by_the_batch():
    """One batched RD cell's peak traced allocation barely grows with the
    trace: kernel memory is O(batch), not O(trace).  MP3D1000 has 3.2x
    MP3D200's rows; only the 4-byte-a-row batch order scales."""
    small, large = family_trace("MP3D200"), family_trace("MP3D1000")
    _cell_peak("RD", small)  # first-call allocations (lazy imports, caches)
    assert len(large.columns()) > 3 * len(small.columns())
    assert _cell_peak("RD", large) <= 1.5 * _cell_peak("RD", small)


def test_batched_sd_cell_memory_is_bounded_by_the_batch():
    """The same for SD, whose batches hold the trace's release rows and
    their perform timeline."""
    small, large = family_trace("MP3D200"), family_trace("MP3D1000")
    _cell_peak("SD", small)
    assert _cell_peak("SD", large) <= 1.5 * _cell_peak("SD", small)


def test_batched_max_cell_memory_is_bounded_by_the_batch():
    """The same for MAX, whose batches also hold the trace's release
    rows and, per batch, its token pieces (which grow with the sharing
    in the batch's blocks, not with the trace)."""
    small, large = family_trace("MP3D200"), family_trace("MP3D1000")
    _cell_peak("MAX", small)
    assert _cell_peak("MAX", large) <= 2 * _cell_peak("MAX", small)


def test_batched_finite_cell_memory_is_bounded_by_the_batch():
    """The same for a finite cache, batched by whole cache sets."""
    small, large = family_trace("MP3D200"), family_trace("MP3D1000")
    _cell_peak("OTF-finite", small)
    assert _cell_peak("OTF-finite", large) <= 1.5 * _cell_peak(
        "OTF-finite", small)


def test_classify_sweep_memory_does_not_grow_with_block_sizes():
    """A nine-size Dubois sweep's peak traced allocation stays within
    1.5x of a one-size sweep's: its cells share each batch context and
    drop it, instead of each keeping a trace-sized view."""
    trace = family_trace("MP3D1000")

    def peak(sizes):
        engine = SweepEngine(trace)
        gc.collect()
        tracemalloc.start()
        try:
            engine.classify_sweep(sizes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak((1024,))  # first-call allocations (lazy imports, caches)
    assert peak(PAPER_BLOCK_SIZES) <= 1.5 * peak((1024,))


def test_a_first_unit_larger_than_a_batch_is_cut_alone(monkeypatch):
    """The first unit's rows overflow the batch: it is a batch of its
    own, and the units after it are still cut into batches."""
    monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 7)
    units = np.repeat(np.arange(4), [10, 3, 3, 2])
    order, ends = kernel_protocols._plan_rows(
        units.copy(), np.ones(len(units), dtype=bool))
    batches = [order[a:b] for a, b in zip(ends[:-1], ends[1:])]
    assert [units[b].tolist() for b in batches] == [
        [0] * 10, [1, 1, 1, 2, 2, 2], [3, 3]]


def _random_trace(rows, seed=0):
    """``rows`` random loads and stores by 4 processors to 48 words."""
    rng = np.random.default_rng(seed)
    ops = np.where(rng.random(rows) < 0.3, STORE, LOAD)
    events = zip(rng.integers(0, 4, rows).tolist(), ops.tolist(),
                 rng.integers(0, 48, rows).tolist())
    return Trace(list(events), 4, validate=False)


def test_fully_associative_cell_memory_is_bounded_by_the_cache(
        monkeypatch):
    """A fully associative cache is one set, so a kernel batch would be
    the whole trace: its default path runs the simulator, whose memory
    follows the footprint and the decoded event chunk (shrunk here so
    these traces span many chunks).  Four times the rows over the same
    words barely move the cell's peak; a whole-trace batch would grow
    ~4x."""
    monkeypatch.setattr(signals, "HEARTBEAT_CHUNK", 512)

    def peak(trace):
        pre = SharedPrecompute(trace)
        gc.collect()
        tracemalloc.start()
        try:
            pre.run_finite("c8", 16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = _random_trace(5_000), _random_trace(20_000)
    peak(small)
    assert peak(large) <= 1.5 * peak(small)


# ----------------------------------------------------------------------
# the default path: run_protocols reaches the kernels
# ----------------------------------------------------------------------
class TestDefaultPath:
    """``run_protocols`` at default arguments — the path ``fig6``,
    ``simulate`` and ``traffic`` take at ``--jobs 1`` with no engine
    flag — honours ``--kernel auto``."""

    def test_run_protocols_default_calls_the_kernels(self, monkeypatch):
        calls = {}

        def counting(name, kernel):
            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return kernel(*args, **kwargs)
            return call

        for name, kernel in list(PROTOCOL_KERNELS.items()):
            monkeypatch.setitem(PROTOCOL_KERNELS, name,
                                counting(name, kernel))
        results = run_protocols(family_trace("WATER16"), 64)
        assert list(results) == ["MIN", "OTF", "RD", "SD", "SRD", "WBWI",
                                 "MAX"]
        assert set(calls) == set(results)


# ----------------------------------------------------------------------
# resolution contract
# ----------------------------------------------------------------------
class TestContextLifetime:
    def test_used_context_freed_without_cyclic_gc(self):
        """A context that built block views is freed as soon as its last
        reference goes, not at the next cyclic collection: it holds every
        derived array of the cells that used it."""
        import gc
        import weakref

        ctx = kernel_context(family_trace("MATMUL24"))
        for bb in (16, 64):
            dubois_kernel(ctx, BlockMap(bb))
        ref = weakref.ref(ctx)
        gc.disable()
        try:
            del ctx
            assert ref() is None
        finally:
            gc.enable()


class TestResolution:
    def test_modes_validate(self):
        for mode in ("auto", "vectorized", "interpreted"):
            assert validate_kernel_mode(mode) == mode
        with pytest.raises(ConfigError):
            validate_kernel_mode("simd")

    def test_kernelled_cells(self):
        assert has_kernel("classify", "dubois")
        assert has_kernel("classify", "eggers")
        assert has_kernel("compare", None)
        for name in ("OTF", "MIN", "WBWI", "RD", "SD", "SRD", "MAX"):
            assert has_kernel("protocol", name)
        for spec in ("c4w1", "c64w4", "c1024w4"):
            assert has_kernel("finite", spec)
        for spec in ("c1", "c64", "c8w8"):  # fully associative: one set
            assert not has_kernel("finite", spec)
        assert not has_kernel("classify", "nope")

    def test_resolve_rules(self):
        assert resolve_kernel("auto", "classify", "dubois") == "vectorized"
        for name in ("OTF", "MIN", "WBWI", "RD", "SD", "SRD", "MAX"):
            assert resolve_kernel("vectorized", "protocol",
                                  name) == "vectorized"
            assert resolve_kernel("auto", "protocol", name) == "vectorized"
        for spec in ("c4w1", "c64w4", "c1024w4"):
            assert resolve_kernel("vectorized", "finite",
                                  spec) == "vectorized"
            assert resolve_kernel("auto", "finite", spec) == "vectorized"
        # Fallback: no kernel for these cells under every mode.
        for kind, which in (("finite", "c64"), ("classify", "nope")):
            assert resolve_kernel("vectorized", kind, which) == "interpreted"
            assert resolve_kernel("auto", kind, which) == "interpreted"
        # Forced interpreted wins everywhere.
        assert resolve_kernel("interpreted", "classify",
                              "dubois") == "interpreted"

    def test_effective_mode(self):
        assert effective_kernel_mode("interpreted") == "interpreted"
        assert effective_kernel_mode("vectorized") == "vectorized"
        assert effective_kernel_mode("auto") == "vectorized"


# ----------------------------------------------------------------------
# checkpoint binding: --resume never mixes kernels
# ----------------------------------------------------------------------
class TestJournalKernelBinding:
    def test_journal_rejects_other_kernel_mode(self, tmp_path):
        trace = family_trace("MATMUL24")
        cell = ("classify", 64, "dubois")
        journal = CheckpointJournal(str(tmp_path), "k", kernel="vectorized")
        journal.record(cell, DuboisClassifier.classify_trace(
            trace, BlockMap(64)))
        journal.close()
        # Same mode: records load.
        assert CheckpointJournal(str(tmp_path), "k",
                                 kernel="vectorized").load() != {}
        # Other mode: the header digest no longer matches.
        with pytest.raises(StaleJournalError, match="kernel"):
            CheckpointJournal(str(tmp_path), "k",
                              kernel="interpreted").load()

    def test_engine_resume_refuses_kernel_switch(self, tmp_path):
        trace = family_trace("MATMUL24")
        ckpt = str(tmp_path / "ckpt")
        cells = [("classify", 64, "dubois")]
        first = SweepEngine(trace, checkpoint_dir=ckpt, kernel="auto")
        second = SweepEngine(trace, checkpoint_dir=ckpt, kernel="auto",
                             trace_key=first.trace_key)
        switched = SweepEngine(trace, checkpoint_dir=ckpt,
                               kernel="interpreted",
                               trace_key=first.trace_key)
        result = first.run_grid(cells)
        assert second.run_grid(cells) == result  # same mode resumes
        with pytest.raises(StaleJournalError):
            switched.run_grid(cells)


# ----------------------------------------------------------------------
# CLI equivalence
# ----------------------------------------------------------------------
class TestCliKernelFlag:
    def test_classify_output_identical_across_kernels(self, capsys):
        from repro.cli import main
        outs = []
        for mode in ("vectorized", "interpreted"):
            assert main(["classify", "MATMUL24", "--block", "32",
                         "--kernel", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_simulate_output_identical_across_kernels(self, capsys):
        from repro.cli import main
        outs = []
        for mode in ("vectorized", "interpreted"):
            assert main(["simulate", "MATMUL24", "--block", "32",
                         "--protocol", "OTF", "--kernel", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_simulate_default_output_matches_interpreted(self, capsys):
        """No flag takes the kernels; ``--kernel interpreted`` the
        oracles."""
        from repro.cli import main
        outs = []
        for flags in ([], ["--kernel", "interpreted"]):
            assert main(["simulate", "WATER16", "--block", "64"]
                        + flags) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


# ----------------------------------------------------------------------
# heartbeat granularity & the stall watchdog
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_large_batch_ticks_at_chunk_granularity(self, monkeypatch):
        """One big batch ticks progress in <= HEARTBEAT_CHUNK slices."""
        trace = family_trace("MP3D200")
        ctx = kernel_context(trace)
        assert ctx.n > signals.HEARTBEAT_CHUNK  # the premise
        ticks = []
        orig = signals.note_progress
        monkeypatch.setattr(signals, "note_progress",
                            lambda n=1: (ticks.append(n), orig(n)))
        dubois_kernel(ctx, BlockMap(64))
        assert sum(ticks) == ctx.n  # one tick credit per row, exactly
        assert max(ticks) <= signals.HEARTBEAT_CHUNK
        assert len(ticks) >= 2  # ticked *during* the batch, not once at end

    @pytest.mark.parametrize("cell", [("classify", 64, "dubois"),
                                      ("classify", 64, "eggers"),
                                      ("classify", 64, "torrellas"),
                                      ("compare", 64, None)])
    def test_interpreted_classifier_cell_ticks_in_chunks(self, monkeypatch,
                                                         cell):
        """An interpreted classify or compare cell credits every row each
        of its classifiers consumed, in slices of at most
        HEARTBEAT_CHUNK, during the cell."""
        trace = family_trace("MP3D200")
        rows = len(trace.columns().data_only())
        assert rows > signals.HEARTBEAT_CHUNK  # the premise
        expected = SharedPrecompute(trace).run_cell(cell)
        ticks = []
        orig = signals.note_progress
        monkeypatch.setattr(signals, "note_progress",
                            lambda n=1: (ticks.append(n), orig(n)))
        pre = SharedPrecompute(trace, kernel="interpreted")
        assert pre.run_cell(cell) == expected
        classifiers = 3 if cell[0] == "compare" else 1
        assert sum(ticks) == classifiers * rows
        assert max(ticks) <= signals.HEARTBEAT_CHUNK
        assert len(ticks) >= 2  # ticked *during* the cell, not once at end

    def test_max_cell_ticks_its_rows_in_chunks(self, monkeypatch):
        """A batched MAX cell credits exactly its row count, in slices of
        at most HEARTBEAT_CHUNK."""
        trace = family_trace("MP3D200")
        rows = len(trace.columns().data_only())
        ticks = []
        orig = signals.note_progress
        monkeypatch.setattr(signals, "note_progress",
                            lambda n=1: (ticks.append(n), orig(n)))
        for chunk in (signals.HEARTBEAT_CHUNK, 64):
            monkeypatch.setattr(signals, "HEARTBEAT_CHUNK", chunk)
            ticks.clear()
            run_kernel_cells(trace.columns(), trace.num_procs,
                             [("protocol", 1024, "MAX")],
                             trace_name=trace.name)
            assert sum(ticks) == rows
            assert max(ticks) <= chunk

    def test_max_cell_pulses_every_chunk_of_its_pass(self, monkeypatch):
        """MAX's earliest-deadline pass over its hard stretches is a
        cancellation point every HEARTBEAT_CHUNK gaps it walks, and a
        shutdown that lands inside it stops the cell."""
        from repro.kernels import classifiers
        from repro.runtime.signals import SweepInterrupted

        trace = family_trace("MP3D200")
        cells = [("protocol", 1024, "MAX")]
        monkeypatch.setattr(signals, "HEARTBEAT_CHUNK", 64)
        walked, inside, pulses = [], [], []
        orig = kernel_protocols._due_in_order

        def walk(gaps, *args):
            walked.append(len(gaps))
            inside.append(1)
            try:
                return orig(gaps, *args)
            finally:
                inside.pop()

        def pulse(self):
            if inside:  # other phases pulse too
                pulses.append(1)
                if stop_after and len(pulses) > stop_after:
                    raise SweepInterrupted("sweep interrupted")

        monkeypatch.setattr(kernel_protocols, "_due_in_order", walk)
        monkeypatch.setattr(classifiers._Heartbeat, "pulse", pulse)
        stop_after = 0
        run_kernel_cells(trace.columns(), trace.num_procs, cells,
                         trace_name=trace.name)
        assert sum(walked) > 64 * 8
        assert len(pulses) == sum(-(-w // 64) for w in walked)

        pulses.clear()
        stop_after = 3
        with pytest.raises(SweepInterrupted):
            run_kernel_cells(trace.columns(), trace.num_procs, cells,
                             trace_name=trace.name)
        assert len(pulses) == 4

    def test_sd_candidate_loop_pulses_every_chunk(self, monkeypatch):
        """The perform timeline's one loop, over candidate flushes, is a
        cancellation point every HEARTBEAT_CHUNK candidates, and a
        batched SD cell still credits exactly its rows."""
        from repro.kernels import classifiers

        trace = family_trace("MP3D200")
        rows = len(trace.columns().data_only())
        ticks, pulses, loops = [], [], []
        orig = signals.note_progress
        monkeypatch.setattr(signals, "note_progress",
                            lambda n=1: (ticks.append(n), orig(n)))
        monkeypatch.setattr(signals, "HEARTBEAT_CHUNK", 64)
        monkeypatch.setattr(classifiers._Heartbeat, "pulse",
                            lambda self: pulses.append(1))
        resolve = kernel_protocols._Performs._resolve

        def counting(block, *args):
            before = len(pulses)
            cut = resolve(block, *args)
            loops.append((len(block), len(pulses) - before))
            return cut

        monkeypatch.setattr(kernel_protocols._Performs, "_resolve",
                            staticmethod(counting))
        run_kernel_cells(trace.columns(), trace.num_procs,
                         [("protocol", 64, "SD")], trace_name=trace.name)
        assert sum(ticks) == rows
        assert max(ticks) <= 64
        assert sum(c for c, _ in loops) > 4 * 64  # several chunks
        assert all(p == -(-c // 64) for c, p in loops)

    def test_finite_lru_loop_pulses_every_chunk(self, monkeypatch):
        """The finite kernel's one loop, over compact LRU events, is a
        cancellation point every HEARTBEAT_CHUNK events, and a batched
        finite cell still credits exactly its rows."""
        from repro.kernels import classifiers

        trace = family_trace("MP3D200")
        rows = len(trace.columns().data_only())
        ticks, pulses, loops = [], [], []
        orig = signals.note_progress
        monkeypatch.setattr(signals, "note_progress",
                            lambda n=1: (ticks.append(n), orig(n)))
        monkeypatch.setattr(signals, "HEARTBEAT_CHUNK", 64)
        monkeypatch.setattr(classifiers._Heartbeat, "pulse",
                            lambda self: pulses.append(1))
        lru_pass = kernel_finite._lru_pass

        def counting(group, kill, stream, ways, hb):
            before = len(pulses)
            out = lru_pass(group, kill, stream, ways, hb)
            loops.append((len(group), len(pulses) - before))
            return out

        monkeypatch.setattr(kernel_finite, "_lru_pass", counting)
        run_kernel_cells(trace.columns(), trace.num_procs,
                         [("finite", 64, "c16w4")], trace_name=trace.name)
        assert sum(ticks) == rows
        assert max(ticks) <= 64
        assert sum(c for c, _ in loops) > 4 * 64  # several chunks
        assert all(p == -(-c // 64) for c, p in loops)

    def test_kernel_stats_accumulate_across_cells(self):
        """A cell's ``batches`` and ``rows`` count each batch of its plan
        once, however many kernels the cell runs on it."""
        trace = family_trace("MP3D200")
        cols = trace.columns()
        pre = SharedPrecompute(trace, kernel="vectorized")
        pre.run_cell(("classify", 64, "dubois"))
        first = dict(pre.last_kernel_stats)
        batches = len(plan_batches(cols, BlockMap(64).offset_bits).ends) - 1
        assert batches > 1
        assert first["rows"] == len(pre.data.proc)
        assert first["batches"] == batches
        pre.run_cell(("compare", 64, None))  # three kernels, one cell
        assert pre.last_kernel_stats["rows"] == first["rows"]
        assert pre.last_kernel_stats["batches"] == batches
        pre.run_cell(("protocol", 64, "OTF"))
        assert pre.last_kernel_stats["batches"] == batches
        pre.run_cell(("finite", 64, "c64w4"))  # batches of 16 cache sets
        assert pre.last_kernel_stats["batches"] == len(plan_batches(
            cols, BlockMap(64).offset_bits, 16).ends) - 1


def _slow_vectorized_cell(task):
    """A vectorized cell slowed to several stall windows of runtime.

    Every heartbeat phase sleeps before ticking, so the kernel takes
    ~0.6 s against a 0.25 s stall timeout while its progress counter
    advances phase by phase — the watchdog must classify it as slow,
    never as hung.  A start-marker file per attempt proves no kill/retry
    happened.
    """
    from repro.kernels import classifiers as K

    marker, idx = task
    with open(f"{marker}.{os.getpid()}.{idx}", "w"):
        pass
    events = [(p, STORE if (i + p) % 3 else LOAD, (i * 7 + p) % 64)
              for i in range(500) for p in range(4)]
    trace = Trace(events, 4, validate=False)
    ctx = KernelContext.from_columns(trace.columns().data_only(), 4)
    orig_phase = K._Heartbeat.phase

    def slow_phase(self):
        time.sleep(0.09)
        orig_phase(self)

    K._Heartbeat.phase = slow_phase
    try:
        K.dubois_kernel(ctx, BlockMap(16))
    finally:
        K._Heartbeat.phase = orig_phase
    return idx


class TestWatchdogRegression:
    def test_slow_vectorized_cell_is_not_falsely_killed(self, tmp_path):
        marker = str(tmp_path / "started")
        sup = Supervisor(_slow_vectorized_cell, jobs=2, timeout=0.25,
                         retry=RetryPolicy(max_attempts=1,
                                           base_delay=0.01,
                                           max_delay=0.02))
        assert sup.run([(marker, 0), (marker, 1)]) == [0, 1]
        starts = sorted(n.rsplit(".", 1)[1] for n in os.listdir(tmp_path))
        assert starts == ["0", "1"]  # exactly one attempt per cell
