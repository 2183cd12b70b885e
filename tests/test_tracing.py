"""Distributed tracing, critical path, diff and history suite.

Pins the observability tentpole's acceptance criteria:

* every span of a traced run carries ``trace_id``/``span_id``; parent
  ids ride the assign messages into forked workers, so a sharded
  parallel sweep reconstructs into **one rooted span tree** with every
  ``parent_id`` resolving;
* the critical-path decomposition tiles the sweep root exactly — its
  segment total always lands within 5% of the sweep span's duration —
  and attributes idle (queue-wait) time explicitly;
* ``repro diff`` flags the vectorized-vs-interpreted kernel delta on
  hot cells; ``repro history`` records runs append-only and flags
  regressions against the trailing median;
* malformed or half-written run directories are skipped with a warning,
  never crashing ``repro report``.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.obs import (
    Recorder,
    apply_trace_context,
    build_tree,
    check_regressions,
    critical_path,
    diff_runs,
    find_runs,
    load_history,
    load_manifest,
    load_tree,
    path_contributors,
    render_diff,
    render_history,
    render_trace,
    report_summary,
    trace_context,
    trace_summary,
    use_recorder,
    validate_record,
)
from repro.obs.history import append_history, record_entry
from repro.trace.trace import Trace
from repro.workloads.registry import make_workload

SIZES = (32, 128)


@pytest.fixture(scope="module")
def trace():
    full = make_workload("MP3D200").generate()
    return Trace(full.events[:4000], full.num_procs, name="MP3D200")


# ----------------------------------------------------------------------
# recorder trace-context unit behaviour
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_untraced_recorder_emits_no_ids(self):
        """Without set_trace_context the record shapes are unchanged —
        the byte-stability guarantee for pre-tracing consumers."""
        rec = Recorder.buffering()
        with rec.span("cell.run", cell=["classify", 32, "dubois"]):
            rec.metric("cell.rows", 1)
        for record in rec.drain():
            assert "trace_id" not in record
            assert "span_id" not in record
            assert "parent_id" not in record

    def test_nested_spans_parent_under_each_other(self):
        rec = Recorder.buffering()
        rec.set_trace_context("run-t1")
        with rec.span("sweep.run", trace="T"):
            with rec.span("cell.run", cell=["classify", 32, "dubois"]):
                rec.metric("cell.rows", 7)
            rec.event("task.done")
        cell, metric, done, sweep = None, None, None, None
        for record in rec.drain():
            validate_record(record)
            assert record.get("trace_id") == "run-t1" \
                or record["kind"] == "log"
            name = record.get("name")
            if name == "sweep.run":
                sweep = record
            elif name == "cell.run":
                cell = record
            elif name == "cell.rows":
                metric = record
            elif name == "task.done":
                done = record
        assert "parent_id" not in sweep
        assert cell["parent_id"] == sweep["span_id"]
        assert metric["parent_id"] == cell["span_id"]
        assert done["parent_id"] == sweep["span_id"]

    def test_log_records_stay_unstamped(self):
        rec = Recorder.buffering()
        rec.set_trace_context("run-t2")
        rec.log("info", "repro.test", "hello")
        (record,) = rec.drain()
        assert "trace_id" not in record
        validate_record(record)

    def test_apply_trace_context_installs_and_restores(self):
        rec = Recorder.buffering()
        with use_recorder(rec):
            assert trace_context() is None
            with apply_trace_context({"trace_id": "run-x",
                                      "parent_id": "abcd"}):
                rec.span_complete("cell.run", 0.1,
                                  cell=["classify", 32, "dubois"])
                ctx = trace_context()
                assert ctx == {"trace_id": "run-x", "parent_id": "abcd"}
            assert rec.trace_id is None
        (record,) = rec.drain()
        assert record["trace_id"] == "run-x"
        assert record["parent_id"] == "abcd"

    def test_ingest_preserves_worker_trace_ids(self):
        child = Recorder.buffering()
        child.set_trace_context("run-t3", parent_id="feed")
        child.span_complete("cell.run", 0.2,
                            cell=["classify", 32, "dubois"])
        shipped = child.drain()
        parent = Recorder.buffering()
        parent.ingest(shipped)
        (record,) = parent.drain()
        assert record["trace_id"] == "run-t3"
        assert record["parent_id"] == "feed"
        assert record["span_id"]


# ----------------------------------------------------------------------
# tree reconstruction and the critical path (synthetic spans)
# ----------------------------------------------------------------------
def _span(name, t, dur, span_id, parent_id=None, **attrs):
    record = {"v": 1, "kind": "span", "t": t, "pid": 1, "seq": 0,
              "name": name, "dur_s": dur, "status": "ok",
              "attrs": attrs, "trace_id": "run-s", "span_id": span_id}
    if parent_id is not None:
        record["parent_id"] = parent_id
    return record


class TestCriticalPath:
    def test_segments_tile_root_with_idle_gaps(self):
        spans = [
            _span("sweep.run", 0.0, 10.0, "root", trace="T"),
            _span("cell.run", 1.0, 3.0, "a", "root", cell=["c", 32, "x"]),
            _span("cell.run", 5.0, 4.0, "b", "root", cell=["c", 64, "x"]),
        ]
        tree = build_tree(spans)
        (root,) = tree.roots
        segments = critical_path(root)
        assert abs(sum(s["dur_s"] for s in segments) - 10.0) < 1e-6
        kinds = [(s["kind"], round(s["dur_s"], 3)) for s in segments]
        assert kinds == [("idle", 1.0), ("span", 3.0), ("idle", 1.0),
                         ("span", 4.0), ("idle", 1.0)]
        contributors = path_contributors(segments, root.dur_s)
        assert abs(sum(c["self_pct"] for c in contributors) - 100.0) < 0.1

    def test_overlapping_children_maximize_coverage(self):
        """Two parallel workers: the chain picks the non-overlapping
        subset covering the most wall time, not every span."""
        spans = [
            _span("sweep.run", 0.0, 10.0, "root"),
            _span("cell.run", 0.0, 6.0, "w1", "root", cell=["c", 1, "x"]),
            _span("cell.run", 0.0, 4.0, "w2", "root", cell=["c", 2, "x"]),
            _span("cell.run", 6.0, 4.0, "w3", "root", cell=["c", 3, "x"]),
        ]
        (root,) = build_tree(spans).roots
        segments = [s for s in critical_path(root) if s["kind"] == "span"]
        assert [s["span_id"] for s in segments] == ["w1", "w3"]
        assert abs(sum(s["dur_s"] for s in critical_path(root))
                   - 10.0) < 1e-6

    def test_recursion_into_sharded_cells(self):
        spans = [
            _span("sweep.run", 0.0, 10.0, "root"),
            _span("cell.run", 1.0, 8.0, "cell", "root",
                  cell=["c", 32, "x"]),
            _span("shard.run", 1.5, 5.0, "sh1", "cell",
                  cell=["c", 32, "x", "shard", 0]),
            _span("merge", 7.0, 1.5, "mg", "cell", cell=["c", 32, "x"]),
        ]
        (root,) = build_tree(spans).roots
        segments = critical_path(root)
        assert abs(sum(s["dur_s"] for s in segments) - 10.0) < 1e-6
        names = [s["name"] for s in segments if s["kind"] == "span"]
        assert names == ["shard.run", "merge"]

    def test_orphan_spans_promoted_to_roots_not_dropped(self):
        spans = [
            _span("sweep.run", 0.0, 5.0, "root"),
            _span("cell.run", 1.0, 1.0, "lost", "never-recorded",
                  cell=["c", 32, "x"]),
        ]
        tree = build_tree(spans)
        assert len(tree.roots) == 2
        assert [n.span_id for n in tree.orphans] == ["lost"]

    def test_all_untraced_stream_is_structured_error(self):
        record = _span("cell.run", 0.0, 1.0, "x")
        del record["span_id"]
        with pytest.raises(ReproError, match="no traced spans"):
            build_tree([record])


# ----------------------------------------------------------------------
# a forked parallel sweep reconstructs into one rooted tree
# ----------------------------------------------------------------------
class TestForkSweepTree:
    @pytest.fixture(scope="class")
    def run(self, trace, tmp_path_factory):
        from repro.analysis.engine import SweepEngine

        tel = str(tmp_path_factory.mktemp("tel"))
        engine = SweepEngine(trace, jobs=2, shards=2, telemetry_dir=tel)
        engine.classify_sweep(SIZES)
        (run_dir,) = find_runs(tel)
        return run_dir

    def test_single_rooted_tree_every_parent_resolves(self, run):
        tree = load_tree(run)
        assert tree.untraced == 0
        assert tree.orphans == []
        (root,) = tree.roots
        assert root.name == "sweep.run"
        assert tree.trace_id == load_manifest(run)["run_id"]
        names = {n.name for n in tree.nodes.values()}
        assert "cell.run" in names and "shard.run" in names

    def test_worker_spans_hang_under_the_sweep_root(self, run):
        """Spans emitted in forked worker processes (different pid)
        still parent under the supervisor's sweep span — the context
        rode the assign message."""
        tree = load_tree(run)
        (root,) = tree.roots
        worker_spans = [n for n in tree.nodes.values()
                        if n.pid != root.pid]
        assert worker_spans, "expected spans from forked workers"

    def test_critical_path_total_matches_sweep_duration(self, run):
        summary = trace_summary(run)
        (entry,) = summary["roots"]
        assert entry["root_dur_s"] > 0
        assert abs(entry["path_total_s"] - entry["root_dur_s"]) \
            <= 0.05 * entry["root_dur_s"]

    def test_trace_cli_renders_and_exits_zero(self, run, capsys):
        assert cli_main(["trace", run]) == 0
        out = capsys.readouterr().out
        assert "sweep.run" in out and "critical path" in out
        assert cli_main(["trace", run, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["roots"][0]["critical_path"]

    def test_report_json_cli(self, run, capsys):
        assert cli_main(["report", os.path.dirname(run), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["runs"]) == 1
        assert data["runs"][0]["cells"]


# ----------------------------------------------------------------------
# kernel diff and history
# ----------------------------------------------------------------------
class TestDiffAndHistory:
    @pytest.fixture(scope="class")
    def runs(self, trace, tmp_path_factory):
        """The same grid twice: interpreted baseline, then vectorized."""
        from repro.analysis.engine import SweepEngine

        pytest.importorskip("numpy")
        out = {}
        for kernel in ("interpreted", "vectorized"):
            tel = str(tmp_path_factory.mktemp(f"tel-{kernel}"))
            engine = SweepEngine(trace, telemetry_dir=tel, kernel=kernel)
            engine.classify_sweep(SIZES)
            (out[kernel],) = find_runs(tel)
        return out

    def test_diff_flags_kernel_speedup_on_hot_cells(self, runs):
        diff = diff_runs(runs["interpreted"], runs["vectorized"],
                         threshold=0.2, min_seconds=0.0)
        assert diff["improvements"], \
            "vectorized run should beat interpreted on some cell"
        flagged = {tuple(r["cell"]) for r in diff["improvements"]}
        assert any(cell[1] == min(SIZES) for cell in flagged), \
            "the hot (smallest-block) cell should be flagged"
        for row in diff["improvements"]:
            assert row["kernel_a"] == "interpreted"
            assert row["kernel_b"] == "vectorized"
            assert row["delta_pct"] < 0
        text = render_diff(diff)
        assert "faster" in text

    def test_diff_cli_and_fail_on_regress(self, runs, capsys):
        assert cli_main(["diff", runs["interpreted"],
                         runs["vectorized"]]) == 0
        capsys.readouterr()
        # Reversed: the interpreted run is the regression.
        assert cli_main(["diff", runs["vectorized"], runs["interpreted"],
                         "--min-seconds", "0", "--fail-on-regress"]) == 1
        out = capsys.readouterr().out
        assert "SLOWER" in out
        assert cli_main(["diff", runs["interpreted"], runs["vectorized"],
                         "--min-seconds", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["improvements"]

    def test_diff_accepts_report_json_files(self, runs, tmp_path,
                                            capsys):
        paths = {}
        for kernel, run in runs.items():
            assert cli_main(["report", run, "--json"]) == 0
            path = tmp_path / f"{kernel}.json"
            path.write_text(capsys.readouterr().out)
            paths[kernel] = str(path)
        diff = diff_runs(paths["interpreted"], paths["vectorized"],
                         min_seconds=0.0)
        assert diff["improvements"]

    def test_history_record_show_and_regression_flag(self, runs,
                                                     tmp_path, capsys):
        hist = str(tmp_path / "hist.jsonl")
        # Three fast baselines, then the slow interpreted run last.
        for _ in range(3):
            assert cli_main(["history", "record", runs["vectorized"],
                             "--file", hist]) == 0
        assert cli_main(["history", "record", runs["interpreted"],
                         "--file", hist]) == 0
        capsys.readouterr()
        assert cli_main(["history", "show", "--file", hist,
                         "--fail-on-regress"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert cli_main(["history", "show", "--file", hist,
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["regressions"]
        assert all(c["verdict"] in ("regression", "stable", "baseline",
                                    "improvement")
                   for c in data["cells"])

    def test_history_tolerates_torn_lines(self, tmp_path):
        hist = str(tmp_path / "torn.jsonl")
        entry = {"v": 1, "run_id": "r1", "outcome": "completed",
                 "duration_s": 1.0,
                 "cells": [{"trace_key": "k", "cell": ["c", 32, "x"],
                            "status": "done", "duration_s": 0.5}]}
        append_history(hist, entry)
        with open(hist, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "run_id": "torn", "cel')
        assert [e["run_id"] for e in load_history(hist)] == ["r1"]

    def test_check_regressions_uses_trailing_median(self):
        def entry(run_id, dur):
            return {"v": 1, "run_id": run_id,
                    "cells": [{"trace_key": "k", "cell": ["c", 32, "x"],
                               "status": "done", "duration_s": dur}]}
        stable = [entry(f"r{i}", 1.0) for i in range(4)]
        # One noisy spike in the middle must not poison the median.
        stable[2] = entry("r2", 30.0)
        summary = check_regressions(stable + [entry("rN", 2.0)],
                                    threshold=0.25)
        (cell,) = summary["cells"]
        assert cell["median_s"] == 1.0
        assert cell["verdict"] == "regression"
        ok = check_regressions(stable + [entry("rN", 1.1)],
                               threshold=0.25)
        assert ok["cells"][0]["verdict"] == "stable"
        assert ok["regressions"] == []

    def test_history_baseline_needs_two_prior_runs(self):
        def entry(run_id, dur):
            return {"v": 1, "run_id": run_id,
                    "cells": [{"trace_key": "k", "cell": ["c", 32, "x"],
                               "status": "done", "duration_s": dur}]}
        summary = check_regressions([entry("r0", 1.0), entry("r1", 9.0)])
        assert summary["cells"][0]["verdict"] == "baseline"
        assert render_history(dict(summary, path="p"))


# ----------------------------------------------------------------------
# malformed run directories
# ----------------------------------------------------------------------
class TestMalformedRuns:
    @pytest.fixture()
    def telemetry(self, trace, tmp_path):
        from repro.analysis.engine import SweepEngine

        tel = str(tmp_path / "tel")
        engine = SweepEngine(trace, telemetry_dir=tel)
        engine.classify_sweep((SIZES[0],))
        return tel

    def test_truncated_manifest_skipped_with_warning(self, telemetry,
                                                     caplog, capsys):
        (good,) = find_runs(telemetry)
        torn = os.path.join(telemetry, "run-19990101T000000-p1-0")
        os.makedirs(torn)
        with open(os.path.join(good, "manifest.json")) as fh:
            payload = fh.read()
        with open(os.path.join(torn, "manifest.json"), "w") as fh:
            fh.write(payload[: len(payload) // 2])  # half-written
        assert load_manifest(torn, strict=False) is None
        with pytest.raises(ReproError):
            load_manifest(torn)
        with caplog.at_level("WARNING", logger="repro"):
            summary = report_summary(telemetry)
        assert [r["run_dir"] for r in summary["runs"]] == [good]
        assert any("malformed" in m for m in caplog.messages)
        assert cli_main(["report", telemetry]) == 0

    def test_all_runs_malformed_is_an_error(self, tmp_path):
        tel = tmp_path / "tel"
        bad = tel / "run-19990101T000000-p1-0"
        bad.mkdir(parents=True)
        (bad / "manifest.json").write_text("{\"v\": 1, \"run")
        with pytest.raises(ReproError, match="all malformed"):
            report_summary(str(tel))
