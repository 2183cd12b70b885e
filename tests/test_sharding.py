"""Range-sharded execution: plan determinism, merge equivalence, resume.

A grid plans batches of whole units once and cuts the plan into ``k``
contiguous ranges; each range is one task.  Acceptance criteria covered
here:

* for every small-suite workload and block size, ``shards=P`` produces
  `ProtocolResult` (breakdown + all counters) and `DuboisBreakdown`
  bit-identical to one range, for all seven paper protocols;
* property test: for random sync traces, any range count and any batch
  size, the merged range parts of protocol, classify, compare and
  multi-set finite cells equal the unsplit interpreted oracle;
* the kernel cells of a grid are planned once, in the parent, before
  its workers fork;
* checkpoint journal keys embed the plan digest, so a resumed sweep
  re-runs only incomplete ranges and never mixes plans;
* `Counters.as_dict` covers every dataclass field (the drift-hazard
  regression), and `Counters.merge` sums every field.
"""

import dataclasses
import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from interpreted import interpret
from repro.analysis.engine import SharedPrecompute, SweepEngine
from repro.classify.dubois import DuboisClassifier
from repro.errors import ConfigError, ProtocolError
from repro.kernels import plan_batches, protocols as kernel_protocols
from repro.kernels import run_kernel_cells
from repro.mem.addresses import BlockMap
from repro.protocols import run_protocol, run_protocols
from repro.protocols.results import Counters, ProtocolResult, merge_shard_results
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace

SEVEN = ("MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX")
#: Every registered protocol: the seven with kernels, which run in
#: ranges, and the update protocols, which run whole.
PROTOCOLS = ("CU", "MAX", "MIN", "OTF", "RD", "SD", "SRD", "WBWI", "WU")


@pytest.fixture(autouse=True)
def small_batches(monkeypatch):
    """Batches of at most 97 rows, so the test traces cut into several
    ranges (forked workers inherit the setting)."""
    monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 97)


def _trace(units, block_words=1):
    """One load per entry of ``units``, to word ``unit * block_words``."""
    return Trace([(0, LOAD, int(u) * block_words) for u in units], 1,
                 validate=False)


# ----------------------------------------------------------------------
# Counters: drift-hazard regression + merge
# ----------------------------------------------------------------------
class TestCounters:
    def test_as_dict_covers_every_field(self):
        """Regression: as_dict must be derived from dataclasses.fields so
        a counter added later can never silently vanish from reports."""
        c = Counters()
        expected = {f.name for f in dataclasses.fields(Counters)}
        assert set(c.as_dict()) == expected

    def test_as_dict_reflects_values(self):
        c = Counters()
        for i, f in enumerate(dataclasses.fields(Counters), start=1):
            setattr(c, f.name, i)
        assert c.as_dict() == {
            f.name: i
            for i, f in enumerate(dataclasses.fields(Counters), start=1)}

    def test_merge_sums_every_field(self):
        a, b = Counters(), Counters()
        for i, f in enumerate(dataclasses.fields(Counters), start=1):
            setattr(a, f.name, i)
            setattr(b, f.name, 10 * i)
        merged = Counters.merge([a, b])
        assert merged.as_dict() == {
            f.name: 11 * i
            for i, f in enumerate(dataclasses.fields(Counters), start=1)}

    def test_merge_rejects_non_int_counter(self):
        bad = Counters()
        bad.fetches = 1.5
        with pytest.raises(ProtocolError, match="not an int"):
            Counters.merge([Counters(), bad])


# ----------------------------------------------------------------------
# batch plans: determinism, balance, clamping
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_plan_is_deterministic(self, mp3d_trace):
        cols = mp3d_trace.columns()
        p1 = plan_batches(cols, 4, ranges=3)
        p2 = plan_batches(mp3d_trace.columns(), 4, ranges=3)
        assert p1.digest == p2.digest
        assert p1.cuts == p2.cuts
        assert np.array_equal(p1.order, p2.order)

    def test_digest_depends_on_shard_count_and_offset(self, mp3d_trace):
        cols = mp3d_trace.columns()
        base = plan_batches(cols, 2, ranges=4)
        assert plan_batches(cols, 2, ranges=2).digest != base.digest
        assert plan_batches(cols, 4, ranges=4).digest != base.digest
        assert plan_batches(cols, 2, num_sets=8,
                            ranges=4).digest != base.digest

    def test_shards_clamped_to_distinct_blocks(self, monkeypatch):
        # One-row batches: every block is a batch, and a batch is the
        # smallest range.
        monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 1)
        plan = plan_batches(_trace([7, 7, 3]).columns(), 0, ranges=16)
        assert plan.num_ranges == 2
        assert sorted(plan.shard_events) == [1, 2]

    def test_empty_trace_plans_one_shard(self):
        trace = Trace([(0, ACQUIRE, 9), (0, RELEASE, 9)], 1, validate=False)
        plan = plan_batches(trace.columns(), 2, ranges=4)
        assert plan.num_ranges == 1
        assert plan.shard_events == (0,)
        assert list(plan.batches(0)) == []

    def test_range_balance_on_uniform_blocks(self, monkeypatch):
        # 64 equally heavy blocks, one per batch, over 4 ranges.
        monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 5)
        plan = plan_batches(_trace(np.repeat(np.arange(64), 5)).columns(),
                            0, ranges=4)
        assert plan.shard_events == (80, 80, 80, 80)

    def test_rejects_nonpositive_shards(self, mp3d_trace):
        with pytest.raises(ConfigError):
            plan_batches(mp3d_trace.columns(), 2, ranges=0)

    def test_ranges_cover_every_data_row_once(self, mp3d_trace):
        """Each range is whole batches of whole blocks, in row order; the
        ranges together hold every data row exactly once."""
        cols = mp3d_trace.columns()
        plan = plan_batches(cols, 4, ranges=5)
        assert plan.num_ranges == 5
        seen = []
        for s in range(plan.num_ranges):
            rows = [r for batch in plan.batches(s) for r in batch.tolist()]
            assert sum(map(len, plan.batches(s))) == plan.shard_events[s]
            seen += rows
            blocks = {int(cols.addr[r]) >> 4 for r in rows}
            for t in range(s + 1, plan.num_ranges):
                later = {int(cols.addr[r]) >> 4
                         for batch in plan.batches(t) for r in batch}
                assert not blocks & later
        assert sorted(seen) == np.flatnonzero(cols.data_mask()).tolist()

    def test_shard_out_of_range(self, mp3d_trace):
        plan = plan_batches(mp3d_trace.columns(), 4, ranges=2)
        with pytest.raises(ConfigError, match="out of range"):
            next(plan.batches(plan.num_ranges))

    def test_interpreted_protocol_runs_whole(self, mp3d_trace):
        """An update protocol has no kernel: it runs as one task however
        many ranges the grid is cut into."""
        engine = SweepEngine(mp3d_trace, shards=3)
        ran = []
        pre = engine.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        (result,) = engine.run_grid([("protocol", 64, "WU")])
        assert ran == [("protocol", 64, "WU")]
        assert result == interpret("WU", mp3d_trace, 64)

    def test_block_size_mismatch_rejected(self, mp3d_trace):
        cols = mp3d_trace.columns()
        plan = plan_batches(cols, BlockMap(64).offset_bits)
        with pytest.raises(ConfigError, match="whole"):
            run_kernel_cells(cols, mp3d_trace.num_procs,
                             [("protocol", 256, "OTF")], trace_name="t",
                             plan=plan)


# ----------------------------------------------------------------------
# merge_shard_results validation
# ----------------------------------------------------------------------
class TestMergeValidation:
    def test_empty_merge_rejected(self):
        with pytest.raises(ProtocolError, match="empty"):
            merge_shard_results([])

    def test_identity_mismatch_rejected(self, mp3d_trace):
        a = run_protocol("OTF", mp3d_trace, 64)
        b = run_protocol("MIN", mp3d_trace, 64)
        with pytest.raises(ProtocolError, match="disagree on protocol"):
            merge_shard_results([a, b])
        c = run_protocol("OTF", mp3d_trace, 256)
        with pytest.raises(ProtocolError, match="disagree on block_bytes"):
            merge_shard_results([a, c])


# ----------------------------------------------------------------------
# equivalence: sharded == whole-trace, bit-identical
# ----------------------------------------------------------------------
class TestShardEquivalence:
    @pytest.mark.parametrize("name", PROTOCOLS)
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_workload_protocols_bit_identical(self, mp3d_trace, name,
                                              shards):
        engine = SweepEngine(mp3d_trace, shards=shards)
        (merged,) = engine.run_grid([("protocol", 64, name)])
        # dataclass equality: breakdown + counters
        assert merged == interpret(name, mp3d_trace, 64)

    @pytest.mark.parametrize("bb", [16, 256, 1024])
    def test_block_sizes_bit_identical(self, workload_traces, bb):
        for trace in workload_traces.values():
            merged = SweepEngine(trace, shards=4).protocol_grid((bb,), SEVEN)
            for name in SEVEN:
                assert merged[(bb, name)] == run_protocol(name, trace, bb)

    @pytest.mark.parametrize("shards", [2, 5])
    def test_engine_classifier_shards_bit_identical(self, mp3d_trace,
                                                    shards):
        cells = [("classify", bb, "dubois") for bb in (16, 64, 1024)]
        serial = SweepEngine(mp3d_trace, shards=1).run_grid(cells)
        sharded = SweepEngine(mp3d_trace, shards=shards).run_grid(cells)
        assert serial == sharded
        for bd, bb in zip(serial, (16, 64, 1024)):
            assert bd == DuboisClassifier.classify_trace(
                mp3d_trace, BlockMap(bb))

    def test_engine_mixed_grid_with_parallel_workers(self, mp3d_trace):
        cells = [("protocol", 64, name) for name in SEVEN]
        cells += [("classify", 64, "dubois"), ("compare", 64, None)]
        serial = SweepEngine(mp3d_trace, jobs=1).run_grid(cells)
        sharded = SweepEngine(mp3d_trace, jobs=2, shards=3).run_grid(cells)
        assert serial == sharded

    def test_range_count_defaults_to_jobs(self, mp3d_trace):
        cells = [("protocol", 64, "OTF"), ("finite", 64, "c16w2"),
                 ("protocol", 64, "WU")]

        def ranges(**kwargs):
            plans = SweepEngine(mp3d_trace, **kwargs)._plan_grid(cells)
            return {cell: plan.num_ranges for cell, plan in plans.items()}

        # The kernel cells' plan and the finite cell's plan are cut into
        # --jobs ranges, an explicit --shards wins, and the interpreted
        # update protocol has no plan.
        assert ranges(jobs=4) == {cells[0]: 4, cells[1]: 4}
        assert ranges(jobs=4, shards=3) == {cells[0]: 3, cells[1]: 3}
        assert ranges(jobs=1) == {cells[0]: 1, cells[1]: 1}
        assert ranges(jobs=1, shards=2) == {cells[0]: 2, cells[1]: 2}

    def test_auto_mode_result_matches_serial(self, mp3d_trace):
        cells = [("protocol", 1024, "SD")]
        serial = SweepEngine(mp3d_trace, jobs=1).run_grid(cells)
        auto = SweepEngine(mp3d_trace, jobs=2).run_grid(cells)
        assert serial == auto

    def test_negative_shards_rejected(self, mp3d_trace):
        with pytest.raises(ConfigError):
            SweepEngine(mp3d_trace, shards=-1)

    def test_run_protocols_with_shards_option(self, mp3d_trace):
        from repro.analysis.engine import ExecutionOptions

        plain = run_protocols(mp3d_trace, 64, ("MIN", "MAX"))
        sharded = run_protocols(mp3d_trace, 64, ("MIN", "MAX"),
                                options=ExecutionOptions(shards=3))
        assert plain == sharded

    def test_grid_plans_once_in_the_parent(self, mp3d_trace, monkeypatch,
                                           tmp_path):
        """At --jobs 2 the kernel cells of a grid are planned once, by the
        parent before it forks: no worker plans, whatever cells its range
        task holds."""
        parent = os.getpid()
        calls = []
        log = tmp_path / "worker-plans"
        original = kernel_protocols.plan_batches

        def counting(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(args[1:])
            else:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(kernel_protocols, "plan_batches", counting)
        monkeypatch.setattr("repro.kernels.plan_batches", counting)
        monkeypatch.setattr("repro.analysis.engine.plan_batches", counting)
        cells = [("protocol", bb, name) for bb in (64, 1024)
                 for name in SEVEN]
        cells += [("classify", 16, "dubois"), ("compare", 256, None)]
        results = SweepEngine(mp3d_trace, jobs=2).run_grid(cells)
        assert calls == [(BlockMap(1024).offset_bits, 0, 2)]
        assert not log.exists()
        assert results == SweepEngine(mp3d_trace,
                                      kernel="interpreted").run_grid(cells)


# ----------------------------------------------------------------------
# property test: any cut merges to the whole-trace result
# ----------------------------------------------------------------------
MAX_PROCS = 4
MAX_WORDS = 16


@st.composite
def sync_traces(draw, max_events=60):
    """Random traces with data and acquire/release events (races allowed)."""
    n = draw(st.integers(1, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    events = []
    for _ in range(n):
        proc = draw(st.integers(0, nproc - 1))
        kind = draw(st.integers(0, 9))
        if kind <= 6:
            events.append((proc, draw(st.sampled_from((LOAD, STORE))),
                           draw(st.integers(0, MAX_WORDS - 1))))
        elif kind <= 8:
            events.append((proc, ACQUIRE, 1000 + proc))
        else:
            events.append((proc, RELEASE, 1000 + proc))
    return Trace(events, nproc, validate=False)


#: Protocol, classify, compare and multi-set finite cells.
PROPERTY_GRID = ([("protocol", bb, name) for bb in (4, 16) for name in SEVEN]
                 + [("classify", 8, "dubois"), ("classify", 16, "eggers"),
                    ("classify", 4, "torrellas"), ("compare", 8, None),
                    ("finite", 4, "c4w2"), ("finite", 8, "c8w1"),
                    ("finite", 4, "c6w2")])


@given(sync_traces(), st.integers(1, 6), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_any_partition_merges_bit_identical(trace, shards, batch_rows):
    """Any range count over any batch size: the merged range parts equal
    the unsplit interpreted oracle, bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", batch_rows)
        plan = SharedPrecompute(trace).shard_plan(BlockMap(16), shards)
        batches = len(plan.ends) - 1
        assert plan.num_ranges == max(1, min(shards, batches))
        assert sum(plan.shard_events) == trace.counts().data
        merged = SweepEngine(trace, shards=shards).run_grid(PROPERTY_GRID)
    whole = SweepEngine(trace, kernel="interpreted").run_grid(PROPERTY_GRID)
    for cell, got, want in zip(PROPERTY_GRID, merged, whole):
        assert got == want, (cell, shards, batch_rows)


@given(sync_traces(), st.sampled_from((4, 8, 16)), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_classifier_partition_merges_bit_identical(trace, bb, shards):
    """Ranges of a classify cell merge to the streaming classifier."""
    whole = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    engine = SweepEngine(trace, shards=shards)
    (merged,) = engine.run_grid([("classify", bb, "dubois")])
    assert merged == whole


# ----------------------------------------------------------------------
# checkpoint: plan-aware journal keys
# ----------------------------------------------------------------------
class TestShardCheckpoint:
    CELLS = [("protocol", 64, "OTF"), ("protocol", 64, "SD")]

    def test_shard_partials_journaled_under_digest_keys(self, tmp_path,
                                                        mp3d_trace,
                                                        monkeypatch):
        import json

        from repro.runtime.checkpoint import CheckpointJournal

        ckpt = str(tmp_path)
        # Observe journal appends at record time: after a successful grid
        # the engine compacts the journal, dropping absorbed partials.
        recorded = []
        original = CheckpointJournal.record

        def spy(journal, cell, result):
            recorded.append(tuple(cell))
            return original(journal, cell, result)

        monkeypatch.setattr(CheckpointJournal, "record", spy)
        engine = SweepEngine(mp3d_trace, shards=2, checkpoint_dir=ckpt)
        engine.run_grid(self.CELLS)
        plan = engine.precompute.shard_plan(BlockMap(64), 2)
        assert plan.num_ranges == 2
        for bb, name in ((64, "OTF"), (64, "SD")):
            for s in range(plan.num_ranges):
                assert ("protocol-shard", bb, name, plan.digest,
                        s) in recorded
            assert ("protocol", bb, name) in recorded
        # Post-compaction the file keeps one line per merged parent cell
        # (plus the header); the absorbed shard partials are gone.
        path = os.path.join(ckpt, f"{engine.trace_key}.jsonl")
        with open(path) as fh:
            kept = [tuple(rec["cell"]) for rec in map(json.loads, fh)
                    if "cell" in rec]
        assert set(kept) == {("protocol", 64, "OTF"), ("protocol", 64, "SD")}

    def test_resume_reruns_only_incomplete_shards(self, tmp_path,
                                                  mp3d_trace):
        """Kill after one range of one cell: the resume re-runs only the
        remaining ranges (and merges), never the completed one."""
        ckpt = str(tmp_path)
        cell = ("protocol", 64, "MAX")
        first = SweepEngine(mp3d_trace, shards=3, checkpoint_dir=ckpt)
        plan = first.precompute.shard_plan(BlockMap(64), 3)
        # Simulate the kill: journal exactly one completed range part.
        from repro.runtime.checkpoint import CheckpointJournal

        (partial,) = first.precompute.run_kernel_cells([cell], plan, 0)
        journal = CheckpointJournal(ckpt, first.trace_key)
        journal.record(("protocol-shard", 64, "MAX", plan.digest, 0),
                       partial)
        journal.close()

        engine = SweepEngine(mp3d_trace, shards=3, checkpoint_dir=ckpt)
        ran = []
        pre = engine.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        (result,) = engine.run_grid([cell])
        assert ran == [("protocol-shard", 64, "MAX", plan.digest, s)
                       for s in (1, 2)]
        assert result == interpret("MAX", mp3d_trace, 64)

    def test_resume_never_mixes_shard_plans(self, tmp_path, mp3d_trace):
        """Parts journaled under one cut are ignored by a resume with a
        different range count (different digest), not merged."""
        ckpt = str(tmp_path)
        cell = ("protocol", 64, "SRD")
        first = SweepEngine(mp3d_trace, shards=4, checkpoint_dir=ckpt)
        plan4 = first.precompute.shard_plan(BlockMap(64), 4)
        from repro.runtime.checkpoint import CheckpointJournal

        (partial,) = first.precompute.run_kernel_cells([cell], plan4, 0)
        journal = CheckpointJournal(ckpt, first.trace_key)
        journal.record(("protocol-shard", 64, "SRD", plan4.digest, 0),
                       partial)
        journal.close()

        engine = SweepEngine(mp3d_trace, shards=2, checkpoint_dir=ckpt)
        plan2 = engine.precompute.shard_plan(BlockMap(64), 2)
        assert plan2.digest != plan4.digest
        ran = []
        pre = engine.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        (result,) = engine.run_grid([cell])
        # Every range of the *new* cut ran; the stale part was unused.
        assert ran == [("protocol-shard", 64, "SRD", plan2.digest, s)
                       for s in range(plan2.num_ranges)]
        assert result == run_protocol("SRD", mp3d_trace, 64)

    def test_merged_cell_resumes_without_any_rerun(self, tmp_path,
                                                   mp3d_trace):
        ckpt = str(tmp_path)
        SweepEngine(mp3d_trace, shards=2,
                    checkpoint_dir=ckpt).run_grid(self.CELLS)
        # Resume with a *different* shard setting: the merged results are
        # journaled under the plain cell keys, so nothing re-runs.
        engine = SweepEngine(mp3d_trace, shards=5, checkpoint_dir=ckpt)
        ran = []
        pre = engine.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        results = engine.run_grid(self.CELLS)
        assert ran == []
        assert results == [run_protocol("OTF", mp3d_trace, 64),
                           run_protocol("SD", mp3d_trace, 64)]


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCLI:
    def test_shards_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "MATMUL24", "--shards", "4", "--jobs", "2"])
        assert args.shards == 4
        assert args.jobs == 2
        args = build_parser().parse_args(["fig6", "--shards", "1"])
        assert args.shards == 1

    def test_simulate_with_shards_matches_plain(self, capsys):
        from repro.cli import main

        assert main(["simulate", "MATMUL24", "--protocol", "OTF"]) == 0
        plain = capsys.readouterr().out
        assert main(["simulate", "MATMUL24", "--protocol", "OTF",
                     "--shards", "3"]) == 0
        assert capsys.readouterr().out == plain
