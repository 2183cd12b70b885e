"""Block-sharded execution: plan determinism, merge equivalence, resume.

Acceptance criteria covered here:

* for every small-suite workload and block size, ``shards=P`` produces
  `ProtocolResult` (breakdown + all counters) and `DuboisBreakdown`
  bit-identical to ``shards=1``, for all seven paper protocols;
* property test: for random sync traces, *any* shard count merges to the
  whole-trace result;
* checkpoint journal keys embed the shard-plan digest, so a resumed sweep
  re-runs only incomplete shards and never mixes plans;
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
from repro.analysis.engine import SweepEngine
from repro.classify.dubois import DuboisClassifier
from repro.errors import ConfigError, ProtocolError
from repro.mem.addresses import BlockMap
from repro.protocols import run_protocol, run_protocols
from repro.protocols.results import Counters, ProtocolResult, merge_shard_results
from repro.protocols.sharding import (
    SHARDABLE_PROTOCOLS,
    plan_for_trace,
    plan_shards,
    run_protocol_shard,
    run_protocol_sharded,
    shard_subtrace,
)
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace

SEVEN = ("MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX")


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
# ShardPlan: determinism, balance, clamping
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_plan_is_deterministic(self):
        blocks = np.array([5, 1, 5, 2, 1, 5, 9, 9, 2, 2, 2])
        p1 = plan_shards(blocks, 2, 3)
        p2 = plan_shards(blocks.copy(), 2, 3)
        assert p1.digest == p2.digest
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_digest_depends_on_shard_count_and_offset(self):
        blocks = np.arange(100) % 17
        base = plan_shards(blocks, 2, 4)
        assert plan_shards(blocks, 2, 2).digest != base.digest
        assert plan_shards(blocks, 4, 4).digest != base.digest

    def test_shards_clamped_to_distinct_blocks(self):
        plan = plan_shards(np.array([7, 7, 3]), 2, 16)
        assert plan.num_shards == 2
        assert sorted(plan.shard_events) == [1, 2]

    def test_empty_trace_plans_one_shard(self):
        plan = plan_shards(np.array([], dtype=np.int64), 2, 4)
        assert plan.num_shards == 1
        assert plan.shard_events == (0,)

    def test_lpt_balance_on_uniform_blocks(self):
        # 64 equally heavy blocks over 4 shards: perfectly balanced.
        blocks = np.repeat(np.arange(64), 5)
        plan = plan_shards(blocks, 2, 4)
        assert set(plan.shard_events) == {80}

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigError):
            plan_shards(np.array([1]), 2, 0)

    def test_subtrace_keeps_all_sync_events(self, mp3d_trace):
        plan = plan_for_trace(mp3d_trace, BlockMap(64), 4)
        cols = mp3d_trace.columns()
        total_sync = int((~cols.data_mask()).sum())
        data_rows = 0
        for s in range(plan.num_shards):
            sub = shard_subtrace(mp3d_trace, plan, s)
            sub_cols = sub.columns()
            assert int((~sub_cols.data_mask()).sum()) == total_sync
            data_rows += int(sub_cols.data_mask().sum())
        assert data_rows == int(cols.data_mask().sum())

    def test_shard_out_of_range(self, mp3d_trace):
        plan = plan_for_trace(mp3d_trace, BlockMap(64), 2)
        with pytest.raises(ProtocolError, match="out of range"):
            shard_subtrace(mp3d_trace, plan, plan.num_shards)

    def test_unshardable_protocol_rejected(self, mp3d_trace):
        plan = plan_for_trace(mp3d_trace, BlockMap(64), 2)
        with pytest.raises(ProtocolError, match="not block-shardable"):
            run_protocol_shard("FINITE", mp3d_trace, 64, plan, 0)

    def test_block_size_mismatch_rejected(self, mp3d_trace):
        plan = plan_for_trace(mp3d_trace, BlockMap(64), 2)
        with pytest.raises(ProtocolError, match="offset_bits"):
            run_protocol_shard("OTF", mp3d_trace, 256, plan, 0)


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
    @pytest.mark.parametrize("name", sorted(SHARDABLE_PROTOCOLS))
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_workload_protocols_bit_identical(self, mp3d_trace, name,
                                              shards):
        whole = run_protocol(name, mp3d_trace, 64)
        merged = run_protocol_sharded(name, mp3d_trace, 64, shards)
        assert merged == whole  # dataclass equality: breakdown + counters

    @pytest.mark.parametrize("bb", [16, 256, 1024])
    def test_block_sizes_bit_identical(self, workload_traces, bb):
        for trace in workload_traces.values():
            for name in SEVEN:
                assert (run_protocol_sharded(name, trace, bb, 4)
                        == run_protocol(name, trace, bb))

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

    def test_auto_mode_shards_small_grids_only(self, mp3d_trace):
        engine = SweepEngine(mp3d_trace, jobs=4)
        # grid >= jobs: plain fan-out.
        assert engine._shards_per_cell(8) == 1
        assert engine._shards_per_cell(4) == 1
        # grid < jobs: spare workers split into shards.
        assert engine._shards_per_cell(2) == 2
        assert engine._shards_per_cell(1) == 4
        assert engine._shards_per_cell(0) == 1
        # explicit shard counts always win.
        assert SweepEngine(mp3d_trace, jobs=4,
                           shards=3)._shards_per_cell(100) == 3
        assert SweepEngine(mp3d_trace, jobs=1,
                           shards=2)._shards_per_cell(5) == 2

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


# ----------------------------------------------------------------------
# property test: any partition merges to the whole-trace result
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


@given(sync_traces(), st.sampled_from((4, 8, 16)), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_any_partition_merges_bit_identical(trace, bb, shards):
    for name in SEVEN:
        whole = run_protocol(name, trace, bb)
        merged = run_protocol_sharded(name, trace, bb, shards)
        assert merged == whole, (name, bb, shards)


@given(sync_traces(), st.sampled_from((4, 8, 16)), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_classifier_partition_merges_bit_identical(trace, bb, shards):
    whole = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    engine = SweepEngine(trace, shards=shards)
    (merged,) = engine.run_grid([("classify", bb, "dubois")])
    assert merged == whole


# ----------------------------------------------------------------------
# checkpoint: shard-plan-aware journal keys
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
        for bb, name in ((64, "OTF"), (64, "SD")):
            for s in range(plan.num_shards):
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
        """Kill after one shard of one cell: the resume re-runs only the
        remaining shards (and merges), never the completed shard."""
        ckpt = str(tmp_path)
        cell = ("protocol", 64, "MAX")
        first = SweepEngine(mp3d_trace, shards=3, checkpoint_dir=ckpt)
        plan = first.precompute.shard_plan(BlockMap(64), 3)
        # Simulate the kill: journal exactly one completed shard partial.
        from repro.runtime.checkpoint import CheckpointJournal

        partial = first.precompute.run_cell(
            ("protocol-shard", 64, "MAX", plan.digest, 0))
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
        """Partials journaled under one plan are ignored by a resume with
        a different shard count (different digest), not merged."""
        ckpt = str(tmp_path)
        cell = ("protocol", 64, "SRD")
        first = SweepEngine(mp3d_trace, shards=4, checkpoint_dir=ckpt)
        plan4 = first.precompute.shard_plan(BlockMap(64), 4)
        from repro.runtime.checkpoint import CheckpointJournal

        partial = first.precompute.run_cell(
            ("protocol-shard", 64, "SRD", plan4.digest, 0))
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
        # Every shard of the *new* plan ran; the stale partial was unused.
        assert ran == [("protocol-shard", 64, "SRD", plan2.digest, s)
                       for s in range(plan2.num_shards)]
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
