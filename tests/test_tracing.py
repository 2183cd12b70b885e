"""Distributed tracing, critical path, report and diff suite.

Pins the observability acceptance criteria:

* every span of a traced run carries ``trace_id``/``span_id``; parent
  ids ride the assign messages into forked workers, so a sharded
  parallel sweep reconstructs into **one span tree rooted at the
  ``run`` span** with every ``parent_id`` resolving;
* the critical-path decomposition tiles the root exactly — its segment
  total always lands within 5% of the run's duration — and attributes
  idle (queue-wait) time explicitly; ``repro report`` prints it;
* runs recorded before the ``run`` root (one root per ``sweep.run``)
  or before span ids render too;
* ``repro diff`` flags the vectorized-vs-interpreted kernel delta on
  hot cells, also against a saved ``repro report --json`` baseline;
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
    critical_path,
    diff_manifests,
    diff_runs,
    find_runs,
    load_manifest,
    load_tree,
    path_contributors,
    render_diff,
    render_run,
    report_summary,
    run_summary,
    trace_context,
    use_recorder,
    validate_record,
)
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
        from repro.kernels import protocols as kernel_protocols

        tel = str(tmp_path_factory.mktemp("tel"))
        engine = SweepEngine(trace, jobs=2, shards=2, telemetry_dir=tel)
        # Small batches, so the trace cuts into two ranges (the forked
        # workers inherit the setting).
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_protocols, "BATCH_ROWS", 257)
            engine.classify_sweep(SIZES)
        (run_dir,) = find_runs(tel)
        return run_dir

    def test_single_rooted_tree_every_parent_resolves(self, run):
        tree = load_tree(run)
        assert tree.untraced == 0
        assert tree.orphans == []
        (root,) = tree.roots
        assert root.name == "run"
        assert tree.trace_id == load_manifest(run)["run_id"]
        names = {n.name for n in tree.nodes.values()}
        assert {"sweep.run", "plan", "cell.run", "shard.run"} <= names

    def test_worker_spans_hang_under_the_sweep_root(self, run):
        """Spans emitted in forked worker processes (different pid)
        still parent under the supervisor's sweep span — the context
        rode the assign message."""
        tree = load_tree(run)
        (root,) = tree.roots
        worker_spans = [n for n in tree.nodes.values()
                        if n.pid != root.pid]
        assert worker_spans, "expected spans from forked workers"

    def test_critical_path_total_matches_run_duration(self, run):
        summary = run_summary(run)
        (entry,) = summary["critical_paths"]
        assert entry["root"] == "run"
        assert entry["root_dur_s"] > 0
        assert abs(entry["path_total_s"] - entry["root_dur_s"]) \
            <= 0.05 * entry["root_dur_s"]
        assert abs(entry["path_total_s"] - summary["duration_s"]) \
            <= 0.05 * summary["duration_s"]

    def test_report_cli_renders_critical_path(self, run, capsys):
        assert cli_main(["report", run]) == 0
        out = capsys.readouterr().out
        assert "critical path of run" in out and "shard.run" in out
        assert "spans: " in out and "orphans=0" in out
        assert cli_main(["report", run, "--json"]) == 0
        (data,) = json.loads(capsys.readouterr().out)["runs"]
        assert data["critical_paths"][0]["contributors"]
        assert data["orphan_spans"] == 0 and data["untraced_spans"] == 0

    def test_report_json_cli(self, run, capsys):
        assert cli_main(["report", os.path.dirname(run), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["runs"]) == 1
        assert data["runs"][0]["cells"]


class TestCommandRun:
    def test_one_run_root_covers_generation_and_planning(self, tmp_path):
        """A CLI command's run is one tree: generation (uncached here)
        and the grid's planning appear on the ``run`` root's critical
        path, whose total is the manifest's duration."""
        tel = str(tmp_path / "tel")
        assert cli_main(["-q", "sweep", "MATMUL24", "--telemetry", tel]) == 0
        (summary,) = report_summary(tel, top=100)["runs"]
        assert summary["orphan_spans"] == 0
        (path,) = summary["critical_paths"]
        assert path["root"] == "run"
        names = {c["name"] for c in path["contributors"]}
        assert {"trace.generate", "plan", "cell.run"} <= names
        assert abs(path["path_total_s"] - summary["duration_s"]) \
            <= 0.05 * summary["duration_s"]


# ----------------------------------------------------------------------
# kernel diff
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
        # The kept-baseline workflow: a saved report against a live run.
        assert cli_main(["diff", paths["interpreted"], runs["vectorized"],
                         "--min-seconds", "0", "--fail-on-regress"]) == 0
        capsys.readouterr()
        assert cli_main(["diff", paths["vectorized"], runs["interpreted"],
                         "--min-seconds", "0", "--fail-on-regress"]) == 1
        assert "SLOWER" in capsys.readouterr().out


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


# ----------------------------------------------------------------------
# older and multi-trace runs, built by hand
# ----------------------------------------------------------------------
def _cell(trace, cell, dur):
    return {"trace": trace, "trace_key": f"{trace}-key", "cell": cell,
            "status": "done", "attempts": 1, "shards": 0,
            "duration_s": dur, "rows": 100, "events_per_sec": None,
            "kernel": "vectorized", "result_sha256": "ab"}


def _write_run(directory, cells, spans, duration=3.0):
    """A run directory: a manifest with ``cells``, a stream of
    ``spans``."""
    run_dir = os.path.join(str(directory), "run-19990101T000000-p1-0")
    os.makedirs(run_dir)
    traces = sorted({(c["trace"], c["trace_key"]) for c in cells})
    manifest = {"v": 1, "run_id": os.path.basename(run_dir),
                "outcome": "completed", "duration_s": duration,
                "argv": None,
                "traces": [{"name": n, "trace_key": k} for n, k in traces],
                "cells": cells, "counters": {}}
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    with open(os.path.join(run_dir, "events.jsonl"), "w") as fh:
        for seq, record in enumerate(spans):
            fh.write(json.dumps(dict(record, seq=seq)) + "\n")
    return run_dir


class TestOlderRuns:
    CELLS = [_cell("A", ["protocol", 64, "MIN"], 0.5),
             _cell("B", ["protocol", 64, "MIN"], 0.8)]

    def test_run_without_a_run_root_renders_one_path_per_sweep(
            self, tmp_path, capsys):
        """Recorded before the ``run`` span: each ``sweep.run`` is a
        root with its own critical-path table."""
        run_dir = _write_run(tmp_path, self.CELLS, [
            _span("sweep.run", 0.0, 1.0, "s1", trace="A"),
            _span("cell.run", 0.2, 0.5, "c1", "s1",
                  cell=["protocol", 64, "MIN"]),
            _span("sweep.run", 2.0, 1.0, "s2", trace="B"),
            _span("cell.run", 2.1, 0.8, "c2", "s2",
                  cell=["protocol", 64, "MIN"]),
        ])
        assert cli_main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        assert "critical path of sweep.run  A (1.000s over a 1.000s" in out
        assert "critical path of sweep.run  B (1.000s over a 1.000s" in out
        paths = run_summary(run_dir)["critical_paths"]
        assert [p["root"] for p in paths] == ["sweep.run", "sweep.run"]
        assert [c["dur_s"] for p in paths for c in p["contributors"]
                if c["name"] == "cell.run"] == [0.5, 0.8]

    def test_run_without_span_ids_renders_cells_and_a_note(
            self, tmp_path, capsys):
        spans = [_span("sweep.run", 0.0, 1.0, "s1"),
                 _span("cell.run", 0.2, 0.5, "c1", "s1",
                       cell=["protocol", 64, "MIN"])]
        for record in spans:
            for key in ("trace_id", "span_id", "parent_id"):
                record.pop(key, None)
        run_dir = _write_run(tmp_path, self.CELLS[:1], spans)
        assert cli_main(["report", run_dir]) == 0
        out = capsys.readouterr().out
        assert "protocol/64/MIN" in out
        assert "spans: 0  orphans=0  untraced=2" in out
        assert "(no traced spans: no critical path to show)" in out
        summary = run_summary(run_dir)
        assert summary["critical_paths"] == []
        assert summary["untraced_spans"] == 2

    def test_report_table_names_the_trace_of_each_cell(self, tmp_path):
        """Two traces with the same cell: a trace column tells them
        apart; a one-trace run has none."""
        two = _write_run(tmp_path / "two", self.CELLS, [])
        lines = render_run(two).splitlines()
        header = next(l for l in lines if l.startswith("trace"))
        assert header.split()[:2] == ["trace", "cell"]
        rows = [l.split()[:2] for l in lines
                if "protocol/64/MIN" in l]
        assert rows == [["A", "protocol/64/MIN"], ["B", "protocol/64/MIN"]]
        one = _write_run(tmp_path / "one", self.CELLS[:1], [])
        assert any(l.startswith("cell ") for l in
                   render_run(one).splitlines())

    def test_critical_path_has_one_row_per_trace_and_cell(self, tmp_path):
        """One ``run`` root over two traces' sweeps: the same cell of
        each trace is its own contributor row, named by its trace."""
        run_dir = _write_run(tmp_path, self.CELLS, [
            _span("run", 0.0, 3.0, "r"),
            _span("sweep.run", 0.0, 1.0, "s1", "r", trace="A"),
            _span("cell.run", 0.2, 0.5, "c1", "s1",
                  cell=["protocol", 64, "MIN"]),
            _span("sweep.run", 1.0, 2.0, "s2", "r", trace="B"),
            _span("cell.run", 1.1, 0.8, "c2", "s2",
                  cell=["protocol", 64, "MIN"]),
        ])
        (path,) = run_summary(run_dir)["critical_paths"]
        cells = [(c["trace"], c["target"], c["dur_s"])
                 for c in path["contributors"] if c["name"] == "cell.run"]
        assert cells == [("B", "protocol/64/MIN", 0.8),
                         ("A", "protocol/64/MIN", 0.5)]
        lines = render_run(run_dir).splitlines()
        header = next(l for l in lines if l.startswith("#"))
        assert header.split()[:4] == ["#", "what", "trace", "target"]
        assert [l.split()[1:4] for l in lines if "cell.run" in l] == [
            ["cell.run", "B", "protocol/64/MIN"],
            ["cell.run", "A", "protocol/64/MIN"]]

    def test_diff_table_names_the_trace_of_each_cell(self):
        a = {"run_id": "a", "cells": self.CELLS}
        b = {"run_id": "b", "cells": [dict(c, duration_s=1.0)
                                      for c in self.CELLS]}
        lines = render_diff(diff_manifests(a, b)).splitlines()
        assert lines[1].split()[:2] == ["trace", "cell"]
        assert [l.split()[:2] for l in lines if "protocol/64/MIN" in l] \
            == [["A", "protocol/64/MIN"], ["B", "protocol/64/MIN"]]
        one = render_diff(diff_manifests({"cells": self.CELLS[:1]},
                                         {"cells": self.CELLS[:1]}))
        assert one.splitlines()[1].split()[0] == "cell"
