"""Plan units: by-cache-set finite caches and sharded
Eggers/Torrellas/compare cells.

Acceptance criteria covered here:

* hypothesis properties: range cuts of a finite cell's set plan, and
  *any* assignment of whole cache sets to ranges — not just the
  planner's contiguous cuts — merge bit-identically to
  ``FiniteOTFProtocol`` across associativities (ways ∈ {1, 2, full});
* a finite cell's batch plan keeps whole cache sets together, and its
  digest differs from a by-block plan's, so checkpoint resume can never
  mix by-block and by-cache-set parts;
* sharded Eggers, Torrellas and three-way compare cells match their
  serial runs on all six workloads;
* finite caches are reachable from the CLI (``repro simulate
  --capacity-blocks N [--ways W]``) and shard to identical output;
* the telemetry manifest records ``partition_dim`` per cell.
"""

import dataclasses
import json
import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.engine import SweepEngine, partition_dim_for
from repro.classify.breakdown import SimpleBreakdown
from repro.classify.compare import compare_classifications
from repro.errors import ConfigError
from repro.kernels import plan_batches, protocols as kernel_protocols
from repro.kernels import BatchPlan, run_kernel_cells
from repro.mem.addresses import BlockMap
from repro.obs import find_runs, load_manifest, validate_manifest
from repro.protocols import (
    FiniteOTFProtocol,
    cache_geometry,
    finite_spec,
    parse_finite_spec,
)
from repro.protocols.results import merge_shard_results
from repro.runtime.policy import shard_member
from repro.trace.synth import uniform_random

CLASSIFY_CELLS = [("classify", 32, "eggers"), ("classify", 32, "torrellas"),
                  ("compare", 32, None)]


@pytest.fixture(autouse=True)
def small_batches(monkeypatch):
    """Batches of at most 97 rows, so the test traces cut into several
    ranges (forked workers inherit the setting)."""
    monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 97)


# ----------------------------------------------------------------------
# plan units
# ----------------------------------------------------------------------
class TestPartitionDim:
    def test_dim_names_are_distinct_per_geometry(self):
        assert (partition_dim_for(("finite", 64, "c32w4"))
                != partition_dim_for(("finite", 64, "c64w4")))
        assert (partition_dim_for(("finite", 64, "c32w4"))
                == partition_dim_for(("finite", 16, "c16w2")))

    def test_plan_digest_embeds_dimension(self):
        """by-block and by-cache-set plans over the same rows never share
        a digest, so resume cannot mix parts across units."""
        cols = uniform_random(4, words=256, num_events=2000,
                              seed=5).columns()
        by_block = plan_batches(cols, 2, ranges=2)
        by_set = plan_batches(cols, 2, num_sets=8, ranges=2)
        assert by_block.digest != by_set.digest
        assert (by_block.num_sets, by_set.num_sets) == (0, 8)

    def test_plan_groups_whole_sets(self):
        """Every block of one cache set lands in the same range."""
        trace = uniform_random(4, words=256, num_events=2000, seed=5)
        plan = plan_batches(trace.columns(), BlockMap(16).offset_bits,
                            num_sets=8, ranges=3)
        assert plan.num_ranges == 3
        cols = trace.columns()
        range_of_set = {}
        for s in range(plan.num_ranges):
            for batch in plan.batches(s):
                for u in ((cols.addr[batch] >> 2) % 8).tolist():
                    assert range_of_set.setdefault(u, s) == s

    def test_set_shards_clamp_to_num_sets(self):
        trace = uniform_random(2, words=64, num_events=500, seed=1)
        plan = plan_batches(trace.columns(), BlockMap(16).offset_bits,
                            num_sets=2, ranges=16)
        assert plan.num_ranges <= 2

    def test_partition_dim_for_cells(self):
        assert partition_dim_for(("protocol", 64, "OTF")) == 0
        assert partition_dim_for(("classify", 64, "eggers")) == 0
        assert partition_dim_for(("compare", 64, None)) == 0
        assert partition_dim_for(("compare-shard", 64, None, "d", 0)) == 0
        assert partition_dim_for(("finite", 64, "c32w4")) == 8
        assert partition_dim_for(("finite-shard", 64, "c32w4", "d", 1)) == 8
        assert partition_dim_for(("unknown", 64, None)) is None

    def test_protocol_shard_rejects_set_plan(self, mp3d_trace):
        cols = mp3d_trace.columns()
        plan = plan_batches(cols, BlockMap(64).offset_bits, num_sets=4,
                            ranges=2)
        with pytest.raises(ConfigError, match="cache set"):
            run_kernel_cells(cols, mp3d_trace.num_procs,
                             [("protocol", 64, "OTF")], trace_name="t",
                             plan=plan)

    def test_finite_shard_rejects_mismatched_geometry(self, mp3d_trace):
        cols = mp3d_trace.columns()
        plan = plan_batches(cols, BlockMap(64).offset_bits, num_sets=4,
                            ranges=2)
        with pytest.raises(ConfigError, match="sets"):
            run_kernel_cells(cols, mp3d_trace.num_procs,
                             [("finite", 64, "c32w2")],  # 16 sets
                             trace_name="t", plan=plan)


# ----------------------------------------------------------------------
# set-associative geometry
# ----------------------------------------------------------------------
class TestCacheGeometry:
    def test_fully_associative_default(self):
        assert cache_geometry(8) == (1, 8)
        assert cache_geometry(8, 8) == (1, 8)

    def test_direct_mapped(self):
        assert cache_geometry(8, 1) == (8, 1)

    @pytest.mark.parametrize("capacity,ways", [(0, None), (8, 0), (8, 16),
                                               (8, 3)])
    def test_bad_shapes_rejected(self, capacity, ways):
        with pytest.raises(ConfigError):
            cache_geometry(capacity, ways)

    def test_spec_round_trips(self):
        assert parse_finite_spec(finite_spec(32, 4)) == (32, 4)
        assert finite_spec(32, 4) == "c32w4"

    def test_fully_associative_specs_canonicalize(self):
        assert finite_spec(32) == finite_spec(32, 32) == "c32"
        assert parse_finite_spec("c32") == (32, None)

    def test_malformed_spec_rejected(self):
        for bad in ("w4", "c", "c8w3", "32", "c8w0"):
            with pytest.raises(ConfigError):
                parse_finite_spec(bad)

    def test_ways_equal_capacity_matches_old_fully_associative(self):
        trace = uniform_random(4, words=256, num_events=4000, seed=9)
        old = FiniteOTFProtocol(4, BlockMap(16), 16).run(trace)
        new = FiniteOTFProtocol(4, BlockMap(16), 16, ways=16).run(trace)
        assert old == new

    def test_direct_mapped_conflict_evicts(self):
        """With 2 direct-mapped sets, blocks 0 and 2 conflict in set 0
        while block 1 (set 1) is untouched."""
        from repro.trace import TraceBuilder

        t = (TraceBuilder(1)
             .load(0, 0)    # block 0 -> set 0
             .load(0, 4)    # block 1 -> set 1
             .load(0, 8)    # block 2 -> set 0: evicts block 0
             .load(0, 0)    # replacement miss; evicts block 2
             .load(0, 4)    # still cached in set 1: hit
             .build())
        r = FiniteOTFProtocol(1, BlockMap(16), 2, ways=1).run(t)
        assert r.counters.replacements == 2  # block 0, then block 2
        assert r.replacement_misses == 1
        assert r.counters.fetches == 4  # the load of block 1 hits once
        # fully associative LRU over both slots also evicts block 1, so
        # the same trace pays one more replacement miss there
        full = FiniteOTFProtocol(1, BlockMap(16), 2).run(t)
        assert full.replacement_misses == 2


# ----------------------------------------------------------------------
# the headline properties
# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 30), ways_sel=st.sampled_from([1, 2, None]),
       shards=st.integers(1, 5))
def test_set_sharding_bit_identical_across_ways(seed, ways_sel, shards):
    """Range-cut set plans merge bit-identically for ways ∈ {1, 2, full}."""
    trace = uniform_random(4, words=128, num_events=1500, seed=seed)
    capacity = 16
    serial = FiniteOTFProtocol(4, BlockMap(16), capacity,
                               ways=ways_sel).run(trace)
    cell = ("finite", 16, finite_spec(capacity, ways_sel))
    (sharded,) = SweepEngine(trace, shards=shards).run_grid([cell])
    assert sharded == serial


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_any_set_partition_merges_bit_identically(data):
    """*Arbitrary* set→range assignments (not just the planner's
    contiguous cuts) merge to the serial result: legality depends only
    on whole sets staying together, not on how batches are chosen."""
    seed = data.draw(st.integers(0, 30), label="seed")
    ways = data.draw(st.sampled_from([1, 2]), label="ways")
    trace = uniform_random(3, words=128, num_events=1000, seed=seed)
    capacity = 16
    block_map = BlockMap(16)
    num_sets = cache_geometry(capacity, ways)[0]
    cols = trace.columns()
    rows = np.flatnonzero(cols.data_mask())
    sets = (cols.addr[rows] >> block_map.offset_bits) % num_sets
    units = np.unique(sets)
    num_ranges = data.draw(st.integers(1, len(units)), label="num_ranges")
    assignment = np.zeros(int(units.max()) + 1, dtype=np.int64)
    for u in units.tolist():
        assignment[u] = data.draw(st.integers(0, num_ranges - 1),
                                  label=f"set{u}")
    # One batch per range: the rows of every set assigned to it.
    groups = [rows[assignment[sets] == s] for s in range(num_ranges)]
    ends = np.cumsum([0] + [len(g) for g in groups]).astype(np.int64)
    plan = BatchPlan(block_map.offset_bits, num_sets, np.concatenate(groups),
                     ends, tuple(range(num_ranges + 1)), "arbitrary")
    serial = FiniteOTFProtocol(3, block_map, capacity, ways=ways).run(trace)
    cell = ("finite", block_map.block_bytes, finite_spec(capacity, ways))
    parts = [run_kernel_cells(cols, 3, [cell],
                              trace_name=trace.name or "<anonymous>",
                              plan=plan, shard=s)[0]
             for s in range(num_ranges)]
    assert merge_shard_results(parts) == serial


class TestShardedClassifierEquivalence:
    def test_all_workloads_match_serial(self, workload_traces):
        """Sharded Eggers/Torrellas/compare == serial on all six workloads."""
        for name, trace in workload_traces.items():
            serial = SweepEngine(trace).run_grid(CLASSIFY_CELLS)
            sharded = SweepEngine(trace, shards=3).run_grid(CLASSIFY_CELLS)
            assert sharded == serial, name

    def test_compare_shards_match_single_pass_driver(self, mp3d_trace):
        """The sharded compare cell equals compare_classifications too."""
        (sharded,) = SweepEngine(mp3d_trace, shards=4).run_grid(
            [("compare", 64, None)])
        assert sharded == compare_classifications(mp3d_trace, 64)

    def test_simple_breakdown_merge(self):
        a = SimpleBreakdown(1, 2, 3, 10)
        b = SimpleBreakdown(4, 5, 6, 20)
        assert a + b == SimpleBreakdown(5, 7, 9, 30)

    def test_comparison_merge_rejects_mismatched_cells(self, mp3d_trace):
        c = compare_classifications(mp3d_trace, 32)
        d = dataclasses.replace(c, block_bytes=64)
        with pytest.raises(ValueError):
            c + d

    def test_parallel_workers_match_serial(self, mp3d_trace):
        if not hasattr(os, "fork"):
            pytest.skip("fork start method unavailable")
        serial = SweepEngine(mp3d_trace).run_grid(CLASSIFY_CELLS)
        parallel = SweepEngine(mp3d_trace, jobs=2, shards=2).run_grid(
            CLASSIFY_CELLS)
        assert parallel == serial


class TestEngineFiniteCells:
    def test_sharded_finite_cell_matches_serial(self, mp3d_trace):
        cells = [("finite", 64, "c64w4"), ("finite", 64, "c16w2")]
        serial = SweepEngine(mp3d_trace).run_grid(cells)
        sharded = SweepEngine(mp3d_trace, shards=4).run_grid(cells)
        assert sharded == serial
        assert serial[0].protocol == "OTF-finite"

    def test_same_geometry_finite_cells_share_each_range(self, mp3d_trace,
                                                         monkeypatch):
        """Finite cells of one block size and set count (c64w4 and c32w2
        at B=64: 16 sets each) run on one by-set plan: one group task of
        both per range, each batch context built once for both."""
        cells = [("finite", 64, "c64w4"), ("finite", 64, "c32w2")]
        built = []
        batch_contexts = kernel_protocols._batch_contexts

        def counting(*args, **kwargs):
            for ctx in batch_contexts(*args, **kwargs):
                built.append(ctx.n)
                yield ctx

        monkeypatch.setattr(kernel_protocols, "_batch_contexts", counting)
        engine = SweepEngine(mp3d_trace, shards=3)
        ran = []
        pre = engine.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        results = engine.run_grid(cells)
        plan = pre.shard_plan(BlockMap(64), 3, dim=16)
        assert plan.num_ranges == 3
        assert ran == [("group",) + tuple(shard_member(c, plan.digest, s)
                                          for c in cells)
                       for s in range(plan.num_ranges)]
        assert built == [int(b - a) for a, b in zip(plan.ends, plan.ends[1:])]
        for cell, result in zip(cells, results):
            capacity, ways = parse_finite_spec(cell[2])
            assert result == FiniteOTFProtocol(
                mp3d_trace.num_procs, BlockMap(64), capacity,
                ways=ways).run(mp3d_trace)

    def test_fully_associative_cell_never_splits(self, mp3d_trace):
        """One set: the cell runs the simulator, whole (and still works)."""
        cell = ("finite", 64, "c64")
        engine = SweepEngine(mp3d_trace, shards=4)
        assert engine._plan_grid([cell]) == {}
        ran = []
        pre = engine.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        (result,) = engine.run_grid([cell])
        assert ran == [cell]
        assert result == FiniteOTFProtocol(
            mp3d_trace.num_procs, BlockMap(64), 64).run(mp3d_trace)

    def test_finite_sweep_shows_essential_fraction_growth(self, mp3d_trace):
        """Paper section 8.0 expectation, through the sharded engine."""
        engine = SweepEngine(mp3d_trace, shards=2)
        results = engine.finite_sweep((8, 32, 4096), block_bytes=64, ways=2)
        fractions = []
        for cap in (8, 32, 4096):
            r = results[cap]
            essential = r.breakdown.essential + r.replacement_misses
            fractions.append(essential / r.misses)
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_finite_shard_partials_journaled_under_digest_keys(
            self, tmp_path, mp3d_trace, monkeypatch):
        from repro.runtime.checkpoint import CheckpointJournal

        ckpt = str(tmp_path / "ckpt")
        engine = SweepEngine(mp3d_trace, shards=3, checkpoint_dir=ckpt)
        # Spy on journal appends: partials are journaled as they finish
        # but the post-sweep compaction folds absorbed ones away, so the
        # digest-keying must be observed at record time.
        recorded = []
        orig_record = CheckpointJournal.record

        def spy(self, cell, result):
            recorded.append(tuple(cell))
            return orig_record(self, cell, result)

        monkeypatch.setattr(CheckpointJournal, "record", spy)
        (result,) = engine.run_grid([("finite", 64, "c64w4")])
        plan = engine.precompute.shard_plan(BlockMap(64), 3, 16)
        assert plan.num_ranges == 3
        expected = {("finite-shard", 64, "c64w4", plan.digest, s)
                    for s in range(plan.num_ranges)}
        assert expected <= set(recorded)
        assert ("finite", 64, "c64w4") in recorded
        # After the grid completes the journal is compacted: the merged
        # parent cell survives, its absorbed shard partials do not.
        journal_file = os.path.join(ckpt, f"{engine.trace_key}.jsonl")
        keys = [tuple(rec["cell"])
                for rec in map(json.loads, open(journal_file,
                                                encoding="utf-8"))
                if "cell" in rec]
        assert ("finite", 64, "c64w4") in keys
        assert not expected & set(keys)

    def test_resume_matches_fresh_run(self, tmp_path, mp3d_trace):
        ckpt = str(tmp_path / "ckpt")
        cells = [("finite", 64, "c64w4"), ("compare", 64, None)]
        first = SweepEngine(mp3d_trace, shards=3,
                            checkpoint_dir=ckpt).run_grid(cells)
        resumed = SweepEngine(mp3d_trace, shards=3,
                              checkpoint_dir=ckpt).run_grid(cells)
        assert resumed == first


# ----------------------------------------------------------------------
# telemetry: partition_dim lands in the manifest
# ----------------------------------------------------------------------
class TestManifestPartitionDim:
    def test_manifest_records_dimension_per_cell(self, tmp_path, mp3d_trace):
        tel = str(tmp_path / "tel")
        engine = SweepEngine(mp3d_trace, shards=2, telemetry_dir=tel)
        engine.run_grid([("finite", 64, "c64w4"), ("classify", 64, "eggers"),
                         ("compare", 64, None)])
        (run_dir,) = find_runs(tel)
        manifest = load_manifest(run_dir)
        validate_manifest(manifest)
        dims = {tuple(c["cell"]): c["partition_dim"]
                for c in manifest["cells"]}
        assert dims[("finite", 64, "c64w4")] == "by-cache-set/16"
        assert dims[("classify", 64, "eggers")] == "by-block"
        assert dims[("compare", 64, None)] == "by-block"


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCLI:
    def test_capacity_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "MATMUL24", "--capacity-blocks", "64",
             "--ways", "4", "--shards", "2"])
        assert args.capacity_blocks == 64
        assert args.ways == 4
        assert args.shards == 2

    def test_ways_requires_capacity(self):
        from repro.cli import main

        assert main(["simulate", "MATMUL24", "--ways", "4"]) == 2

    def test_capacity_rejects_other_protocols(self):
        from repro.cli import main

        assert main(["simulate", "MATMUL24", "--capacity-blocks", "64",
                     "--protocol", "MIN"]) == 2

    def test_simulate_finite_sharded_matches_plain(self, capsys):
        from repro.cli import main

        assert main(["simulate", "MATMUL24", "--capacity-blocks", "16",
                     "--ways", "2"]) == 0
        plain = capsys.readouterr().out
        assert "OTF-finite" in plain
        assert main(["simulate", "MATMUL24", "--capacity-blocks", "16",
                     "--ways", "2", "--shards", "3"]) == 0
        assert capsys.readouterr().out == plain
