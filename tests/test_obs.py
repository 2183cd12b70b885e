"""Telemetry layer suite: recorder, schema, fold, manifest, progress, report.

Pins the observability acceptance criteria:

* every record kind the layer emits (span / metric / event / log)
  validates against the checked-in ``telemetry.schema.json``, and the
  schema rejects unknown names, kinds and stray properties;
* worker records ship over the reply channel and merge into one stream
  with a single total ``seq`` order and preserved worker pids;
* the headline property: a recorded sweep's merged timeline contains
  **exactly one ok ``cell.run`` span per grid cell**, serial, parallel
  and sharded alike;
* a sweep resumed from its checkpoint journal produces a manifest whose
  stable bytes (:func:`repro.obs.manifest_stable_bytes`) are identical
  to the run that computed every cell;
* supervisor retries announce themselves as warning logs and
  ``task.failed`` telemetry events at the moment they happen;
* the workers' observed peak RSS lands in the manifest, and ``repro
  report`` renders all of it.
"""

import io
import json
import logging
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import SweepEngine
from repro.errors import ReproError
from repro.kernels import protocols as kernel_protocols
from repro.obs import (
    NULL_RECORDER,
    ProgressLine,
    Recorder,
    RunTelemetry,
    TelemetryLogHandler,
    TelemetrySchemaError,
    current_run,
    find_runs,
    format_eta,
    format_rate,
    library_logger,
    load_manifest,
    manifest_stable_bytes,
    render_report,
    render_run,
    result_digest,
    slowest_spans,
    summarize_kinds,
    use_recorder,
    validate_manifest,
    validate_record,
    validate_stream,
)
from repro.runtime import FaultPlan, RetryPolicy, Supervisor
from repro.runtime.checkpoint import decode_result, encode_result
from repro.trace.trace import Trace
from repro.workloads.registry import make_workload

#: Block sizes of the recorded acceptance sweep (small but sharded).
SIZES = (32, 128)

#: Data rows per kernel batch here: the 4000-event trace cuts into
#: several ranges.
SMALL_BATCH_ROWS = 257

#: Fast retry policy so failure scenarios stay sub-second.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


@pytest.fixture(scope="module")
def trace():
    full = make_workload("MP3D200").generate()
    return Trace(full.events[:4000], full.num_procs, name="MP3D200")


@pytest.fixture(scope="module", autouse=True)
def small_batches():
    """Small kernel batches for the whole module (forked workers inherit
    the setting)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", SMALL_BATCH_ROWS)
        yield


def _read_records(run_dir):
    with open(os.path.join(run_dir, "events.jsonl"),
              encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _ok_cell_runs(records):
    """Parent grid cell -> count of ok ``cell.run`` spans."""
    counts = {}
    for r in records:
        if (r.get("kind") == "span" and r.get("name") == "cell.run"
                and r.get("status") == "ok"):
            cell = tuple(r["attrs"]["cell"][:3])
            counts[cell] = counts.get(cell, 0) + 1
    return counts


# ----------------------------------------------------------------------
# recorder unit behaviour
# ----------------------------------------------------------------------
class TestRecorder:
    def test_span_context_manager_times_and_validates(self):
        rec = Recorder.buffering()
        with rec.span("cell.run", cell=["classify", 32, "dubois"]) as sp:
            sp.set(rows=100)
        (record,) = rec.drain()
        assert record["kind"] == "span"
        assert record["status"] == "ok"
        assert record["dur_s"] >= 0
        assert record["attrs"]["rows"] == 100
        validate_record(record)

    def test_span_records_error_status_and_reraises(self):
        rec = Recorder.buffering()
        with pytest.raises(ValueError):
            with rec.span("cell.run", cell=["classify", 32, "dubois"]):
                raise ValueError("boom")
        (record,) = rec.drain()
        assert record["status"] == "error"
        validate_record(record)

    def test_seq_is_monotonic_and_common_fields_stamped(self):
        rec = Recorder.buffering()
        for i in range(5):
            rec.metric("cell.rows", i, cell=["classify", 32, "dubois"])
        records = rec.drain()
        assert [r["seq"] for r in records] == list(range(5))
        for r in records:
            assert r["v"] == 1 and r["pid"] == os.getpid() and r["t"] > 0

    def test_ingest_reassigns_seq_and_preserves_worker_pid(self):
        child = Recorder.buffering()
        child.event("task.done", cell=["classify", 32, "dubois"])
        shipped = child.drain()
        shipped[0]["pid"] = 99999  # as if from a forked worker
        parent = Recorder.buffering()
        parent.metric("cache.hit", 1)
        parent.ingest(shipped)
        first, second = parent.drain()
        assert [first["seq"], second["seq"]] == [0, 1]
        assert second["pid"] == 99999

    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.active is False
        with NULL_RECORDER.span("cell.run") as sp:
            sp.set(rows=1)
        NULL_RECORDER.metric("cell.rows", 1)
        NULL_RECORDER.event("task.done")
        assert NULL_RECORDER.drain() == []

    def test_use_recorder_scopes_and_restores(self):
        from repro.obs import get_recorder
        rec = Recorder.buffering()
        assert get_recorder() is NULL_RECORDER
        with use_recorder(rec):
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_log_handler_bridges_stdlib_logging(self):
        rec = Recorder.buffering()
        handler = TelemetryLogHandler(rec)
        logger = library_logger()
        logger.addHandler(handler)
        try:
            logging.getLogger("repro.test_obs").warning("deg %s", "raded")
        finally:
            logger.removeHandler(handler)
        (record,) = rec.drain()
        assert record["kind"] == "log"
        assert record["level"] == "warning"
        assert record["message"] == "deg raded"
        validate_record(record)

    def test_writes_jsonl_file(self, tmp_path):
        path = str(tmp_path / "sub" / "events.jsonl")
        rec = Recorder(path)
        rec.event("run.start", run_id="r1")
        rec.close()
        assert validate_stream(path) == 1


# ----------------------------------------------------------------------
# the checked-in schema
# ----------------------------------------------------------------------
class TestSchema:
    def test_every_emitted_kind_validates(self):
        """One record per enumerated span/metric/event name, plus a log."""
        rec = Recorder.buffering()
        for name in ("sweep.run", "trace.generate", "cache.lookup",
                     "cell.run", "shard.run", "merge", "checkpoint.write"):
            rec.span_complete(name, 0.5, cell=["classify", 32, "dubois"])
        for name, unit in (("cache.hit", None), ("cache.miss", None),
                           ("cell.rows", None), ("cell.events_per_sec", None),
                           ("worker.ru_maxrss_kb", "kb")):
            rec.metric(name, 42, unit=unit)
        for name in ("run.start", "run.finish", "sweep.start",
                     "sweep.finish", "fanout.start", "task.assigned",
                     "task.done", "task.failed", "cell.resumed"):
            rec.event(name, level="warning" if name == "task.failed"
                      else "info")
        rec.log("info", "repro.analysis.engine", "hello")
        records = rec.drain()
        assert len(records) == 22
        for record in records:
            validate_record(record)

    @pytest.mark.parametrize("bad", [
        {"kind": "bogus", "name": "x", "v": 1, "t": 1.0, "pid": 1, "seq": 0},
        {"kind": "span", "name": "not.a.span", "dur_s": 1.0, "status": "ok",
         "attrs": {}, "v": 1, "t": 1.0, "pid": 1, "seq": 0},
        {"kind": "span", "name": "cell.run", "dur_s": 1.0, "status": "ok",
         "attrs": {}, "extra": True, "v": 1, "t": 1.0, "pid": 1, "seq": 0},
        {"kind": "event", "name": "task.failed", "level": "fatal",
         "attrs": {}, "v": 1, "t": 1.0, "pid": 1, "seq": 0},
        {"kind": "metric", "name": "cell.rows", "attrs": {},
         "v": 1, "t": 1.0, "pid": 1, "seq": 0},  # missing value
    ])
    def test_schema_rejects_malformed_records(self, bad):
        with pytest.raises(TelemetrySchemaError):
            validate_record(bad)

    def test_stream_validation_skips_torn_tail(self, tmp_path):
        rec = Recorder.buffering()
        rec.event("run.start", run_id="r1")
        rec.event("run.finish", run_id="r1", outcome="completed")
        path = tmp_path / "events.jsonl"
        lines = [json.dumps(r) for r in rec.drain()]
        path.write_text(lines[0] + "\n" + lines[1] + "\n"
                        + lines[1][: len(lines[1]) // 2])
        assert validate_stream(str(path)) == 2
        assert summarize_kinds(str(path)) == {"event": 2}


# ----------------------------------------------------------------------
# a recorded sweep, end to end
# ----------------------------------------------------------------------
class TestRecordedSweep:
    @pytest.fixture(scope="class")
    def run(self, trace, tmp_path_factory):
        """One sharded parallel sweep recorded under ``--telemetry``."""
        tel = str(tmp_path_factory.mktemp("tel"))
        engine = SweepEngine(trace, jobs=2, shards=2, telemetry_dir=tel)
        panel = engine.classify_sweep(SIZES)
        (run_dir,) = find_runs(tel)
        return {"panel": panel, "dir": run_dir,
                "records": _read_records(run_dir),
                "manifest": load_manifest(run_dir)}

    def test_stream_validates(self, run):
        assert validate_stream(
            os.path.join(run["dir"], "events.jsonl")) == len(run["records"])

    def test_exactly_one_cell_run_span_per_cell(self, run):
        expected = {("classify", bb, "dubois") for bb in SIZES}
        assert _ok_cell_runs(run["records"]) == {c: 1 for c in expected}

    def test_sharded_cells_carry_shard_spans_and_merge(self, run):
        kinds = {}
        for r in run["records"]:
            if r.get("kind") == "span":
                kinds[r["name"]] = kinds.get(r["name"], 0) + 1
        assert kinds.get("shard.run", 0) == 2 * len(SIZES)
        assert kinds.get("merge", 0) == len(SIZES)

    def test_manifest_validates_and_folds_cells(self, run):
        manifest = run["manifest"]
        validate_manifest(manifest)
        assert manifest["outcome"] == "completed"
        cells = {tuple(c["cell"]): c for c in manifest["cells"]}
        assert set(cells) == {("classify", bb, "dubois") for bb in SIZES}
        for entry in cells.values():
            assert entry["status"] == "done"
            assert entry["shards"] == 2
            assert entry["rows"] > 0
            assert entry["result_sha256"]
            assert entry["events_per_sec"] > 0

    def test_observed_rss_present_for_worker_cells(self, run):
        """Every cell's entry carries its workers' peak RSS."""
        rss = [c["observed_rss_kb"] for c in run["manifest"]["cells"]]
        assert all(r is not None and r > 0 for r in rss)

    def test_worker_records_merged_with_worker_pids(self, run):
        parent = os.getpid()
        worker_pids = {r["pid"] for r in run["records"]
                       if r.get("kind") == "metric"
                       and r.get("name") == "worker.ru_maxrss_kb"}
        assert worker_pids and parent not in worker_pids
        seqs = [r["seq"] for r in run["records"]]
        assert seqs == list(range(len(seqs)))

    def test_report_renders_cells_and_spans(self, run):
        text = render_run(run["dir"])
        assert "classify/32/dubois" in text
        assert "top" in text and "slowest spans" in text
        spans = slowest_spans(os.path.join(run["dir"], "events.jsonl"),
                              top=3)
        assert len(spans) == 3
        assert spans[0]["dur_s"] >= spans[-1]["dur_s"]

    def test_render_report_walks_directory(self, run):
        out = io.StringIO()
        render_report(os.path.dirname(run["dir"]), stream=out)
        assert "classify/32/dubois" in out.getvalue()

    def test_render_report_rejects_empty_directory(self, tmp_path):
        with pytest.raises(ReproError):
            render_report(str(tmp_path), stream=io.StringIO())


# ----------------------------------------------------------------------
# kernel execution-path telemetry
# ----------------------------------------------------------------------
class TestKernelTelemetry:
    """The manifest and stream record which execution path each cell took.

    A mixed grid — a classifier, a protocol and a finite cache — runs
    once by default, where every cell has a kernel, and once under
    ``kernel="interpreted"``.  Each run must fold per-cell ``kernel``
    values into the manifest and emit a schema-valid ``kernel.batch``
    metric for exactly the vectorized cells.
    """

    CELLS = (("classify", 32, "dubois"), ("protocol", 32, "OTF"),
             ("finite", 32, "c16w2"))

    @pytest.fixture(scope="class")
    def runs(self, trace, tmp_path_factory):
        pytest.importorskip("numpy")
        out = {}
        for mode, kernel in (("vectorized", "auto"),
                             ("interpreted", "interpreted")):
            tel = str(tmp_path_factory.mktemp(f"tel-kernel-{mode}"))
            engine = SweepEngine(trace, telemetry_dir=tel, kernel=kernel)
            results = engine.run_grid(list(self.CELLS))
            (run_dir,) = find_runs(tel)
            out[mode] = {"results": results, "dir": run_dir,
                         "records": _read_records(run_dir),
                         "manifest": load_manifest(run_dir)}
        return out

    def test_manifest_records_kernel_per_cell(self, runs):
        for mode, run in runs.items():
            validate_manifest(run["manifest"])
            kernels = {tuple(c["cell"]): c["kernel"]
                       for c in run["manifest"]["cells"]}
            assert kernels == {cell: mode for cell in self.CELLS}
        assert runs["vectorized"]["results"] == runs["interpreted"][
            "results"]

    def test_kernel_batch_metric_for_vectorized_cells_only(self, runs):
        for mode, run in runs.items():
            batches = {tuple(r["attrs"]["cell"]): r for r in run["records"]
                       if r.get("kind") == "metric"
                       and r.get("name") == "kernel.batch"}
            want = set(self.CELLS) if mode == "vectorized" else set()
            assert set(batches) == want
            for rec in batches.values():
                assert rec["value"] >= 1
                assert rec["attrs"]["rows"] > 0
                assert rec["attrs"]["events_per_batch"] > 0
                validate_record(rec)

    def test_stream_validates(self, runs):
        for run in runs.values():
            assert validate_stream(
                os.path.join(run["dir"], "events.jsonl")) == len(
                    run["records"])

    def test_spans_carry_kernel_attr(self, runs):
        for mode, run in runs.items():
            spans = {tuple(r["attrs"]["cell"]): r["attrs"].get("kernel")
                     for r in run["records"]
                     if r.get("kind") == "span"
                     and r.get("name") == "cell.run"}
            assert spans[("classify", 32, "dubois")] == mode
            assert spans[("finite", 32, "c16w2")] == mode


class TestGroupSpans:
    """A group task's ``cell.run`` spans cover no more than the wall time
    the group took: end to end when it succeeds, overlapping when it
    fails."""

    GROUP = ("group", ("classify", 32, "dubois"), ("protocol", 32, "OTF"),
             ("compare", 128, None))

    def _spans(self, pre):
        rec = Recorder.buffering()
        start = time.time()
        with use_recorder(rec):
            try:
                pre.run_cell(self.GROUP)
            except RuntimeError:
                pass
        end = time.time()
        spans = [r for r in rec.drain()
                 if r.get("kind") == "span" and r["name"] == "cell.run"]
        assert [tuple(s["attrs"]["cell"]) for s in spans] == list(
            self.GROUP[1:])
        return spans, start, end

    def test_ok_spans_run_end_to_end(self, trace):
        spans, start, end = self._spans(SweepEngine(trace).precompute)
        assert all(s["status"] == "ok" for s in spans)
        assert spans[0]["t"] >= start
        for prev, nxt in zip(spans, spans[1:]):
            assert nxt["t"] == pytest.approx(prev["t"] + prev["dur_s"],
                                             abs=1e-5)
        assert spans[-1]["t"] + spans[-1]["dur_s"] <= end + 1e-5

    def test_error_spans_overlap_within_the_group_time(self, trace):
        pre = SweepEngine(trace).precompute

        def fail(cells, plan=None, shard=0, stats=None):
            time.sleep(0.05)
            raise RuntimeError("kernel failed")

        pre.run_kernel_cells = fail
        spans, start, end = self._spans(pre)
        assert all(s["status"] == "error" for s in spans)
        assert len({s["t"] for s in spans}) == 1
        assert len({s["dur_s"] for s in spans}) == 1
        assert spans[0]["dur_s"] >= 0.05
        assert start <= spans[0]["t"]
        assert spans[0]["t"] + spans[0]["dur_s"] <= end + 1e-5


# ----------------------------------------------------------------------
# the headline property, serial, parallel and sharded
# ----------------------------------------------------------------------
class TestOneSpanPerCellProperty:
    @settings(max_examples=6, deadline=None)
    @given(jobs=st.sampled_from([1, 2, 4]),
           shards=st.sampled_from([1, 2]))
    def test_exactly_one_ok_cell_run_span_per_grid_cell(
            self, trace, jobs, shards):
        """Whatever the execution shape — serial, parallel or sharded —
        the merged timeline has exactly one ok ``cell.run`` span per grid
        cell, and the manifest marks every cell done."""
        tel = tempfile.mkdtemp(prefix="repro-obs-prop-")
        engine = SweepEngine(trace, jobs=jobs, shards=shards,
                             retry=FAST_RETRY, telemetry_dir=tel)
        engine.classify_sweep(SIZES)
        (run_dir,) = find_runs(tel)
        records = _read_records(run_dir)
        expected = {("classify", bb, "dubois") for bb in SIZES}
        assert _ok_cell_runs(records) == {c: 1 for c in expected}
        manifest = load_manifest(run_dir)
        validate_manifest(manifest)
        statuses = {tuple(c["cell"]): c["status"]
                    for c in manifest["cells"]}
        assert statuses == {c: "done" for c in expected}


# ----------------------------------------------------------------------
# resume byte-stability
# ----------------------------------------------------------------------
class TestResumeStability:
    def test_resumed_manifest_has_identical_stable_bytes(self, trace,
                                                         tmp_path):
        ckpt = str(tmp_path / "ckpt")
        fresh_tel = str(tmp_path / "tel-fresh")
        resumed_tel = str(tmp_path / "tel-resumed")

        fresh = SweepEngine(trace, checkpoint_dir=ckpt,
                            telemetry_dir=fresh_tel)
        panel_fresh = fresh.classify_sweep(SIZES)
        resumed = SweepEngine(trace, checkpoint_dir=ckpt,
                              telemetry_dir=resumed_tel)
        panel_resumed = resumed.classify_sweep(SIZES)
        assert panel_resumed == panel_fresh

        (fresh_run,) = find_runs(fresh_tel)
        (resumed_run,) = find_runs(resumed_tel)
        m_fresh = load_manifest(fresh_run)
        m_resumed = load_manifest(resumed_run)
        # Every cell came from the journal, none recomputed...
        assert {c["status"] for c in m_resumed["cells"]} == {"resumed"}
        assert m_resumed["counters"]["tasks_done"] == 0
        # ...and the stable view cannot tell the runs apart.
        assert (manifest_stable_bytes(m_fresh)
                == manifest_stable_bytes(m_resumed))
        # The volatile view *can* (distinct run ids), so the stability is
        # a property of the projection, not an accident of equality.
        assert m_fresh["run_id"] != m_resumed["run_id"]

    def test_parallel_manifest_has_serial_stable_bytes(self, trace,
                                                       tmp_path):
        """Fork workers and range shards change how a grid runs, never
        what its manifest's stable view records."""
        manifests = {}
        for label, jobs, shards in (("serial", 1, None),
                                    ("parallel", 2, 2)):
            tel = str(tmp_path / label)
            engine = SweepEngine(trace, jobs=jobs, shards=shards,
                                 telemetry_dir=tel)
            engine.protocol_grid(SIZES, ("OTF", "SD", "MIN"))
            (run,) = find_runs(tel)
            manifests[label] = load_manifest(run)
        serial, parallel = manifests["serial"], manifests["parallel"]
        # The parallel run really sharded its cells in forked workers...
        assert {c["shards"] for c in parallel["cells"]} == {2}
        assert {c["shards"] for c in serial["cells"]} == {0}
        # ...and the stable view cannot tell the runs apart.
        assert (manifest_stable_bytes(serial)
                == manifest_stable_bytes(parallel))

    def test_result_digest_survives_journal_round_trip(self, trace):
        result = SweepEngine(trace).classify_sweep((64,)).breakdowns[0]
        decoded = decode_result(encode_result(result))
        assert result_digest(decoded) == result_digest(result)

    def test_result_digest_falls_back_for_plain_payloads(self):
        assert result_digest({"b": 2, "a": 1}) == result_digest(
            {"a": 1, "b": 2})


# ----------------------------------------------------------------------
# per-cell attempts
# ----------------------------------------------------------------------
class TestManifestAttempts:
    @staticmethod
    def _attempts(tel):
        (run_dir,) = find_runs(tel)
        return {tuple(c["cell"]): (c["attempts"], c["shards"])
                for c in load_manifest(run_dir)["cells"]}

    def test_range_tasks_count_one_attempt(self, trace, tmp_path):
        """At --jobs 4 each kernel cell rides in four range tasks that
        ran once each: the cell took one attempt, not four."""
        tel = str(tmp_path / "tel")
        SweepEngine(trace, jobs=4, telemetry_dir=tel).classify_sweep(SIZES)
        assert self._attempts(tel) == {("classify", bb, "dubois"): (1, 4)
                                       for bb in SIZES}

    def test_a_crashed_attempt_counts(self, trace, tmp_path):
        wu = ("protocol", 64, "WU")
        cells = [("classify", bb, "dubois") for bb in SIZES] + [wu]
        tel = str(tmp_path / "tel")
        SweepEngine(trace, jobs=4, retry=FAST_RETRY, telemetry_dir=tel,
                    fault_plan=FaultPlan(crash={wu: 1})).run_grid(cells)
        attempts = {cell: att for cell, (att, _) in
                    self._attempts(tel).items()}
        assert attempts == {**dict.fromkeys(cells[:-1], 1), wu: 2}


# ----------------------------------------------------------------------
# failures announce themselves when they happen
# ----------------------------------------------------------------------
class TestFailureTelemetry:
    def test_worker_oom_retry_emits_event_and_warning_log(self, caplog,
                                                          tmp_path):
        marker = str(tmp_path / "oom-once")

        def runner(task):
            # Task "b" runs out of memory in the first worker that takes
            # it; the marker file makes its retry succeed.
            if task == "b":
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    raise MemoryError("worker out of memory")
            return task * 2

        rec = Recorder.buffering()
        with use_recorder(rec):
            with caplog.at_level(logging.WARNING, logger="repro"):
                sup = Supervisor(runner, jobs=2, retry=FAST_RETRY)
                assert sup.run(["a", "b", "c"]) == ["aa", "bb", "cc"]
        failed = [r for r in rec.drain()
                  if r.get("kind") == "event"
                  and r.get("name") == "task.failed"]
        assert len(failed) == 1
        assert failed[0]["level"] == "warning"
        assert failed[0]["attrs"]["fail_kind"] == "oom"
        assert failed[0]["attrs"]["action"] == "retry"
        assert any("retrying after backoff" in r.message
                   for r in caplog.records)


# ----------------------------------------------------------------------
# live progress line
# ----------------------------------------------------------------------
class TestProgress:
    @staticmethod
    def _feed(progress):
        progress({"kind": "event", "name": "fanout.start",
                  "attrs": {"tasks": 2}})
        for _ in range(2):
            progress({"kind": "event", "name": "task.assigned",
                      "attrs": {}})
            progress({"kind": "span", "name": "cell.run", "status": "ok",
                      "dur_s": 0.5, "attrs": {"rows": 500_000}})
            progress({"kind": "event", "name": "task.done", "attrs": {}})

    def test_non_tty_prints_full_lines_and_final_summary(self):
        out = io.StringIO()
        progress = ProgressLine(out, non_tty_interval=0.0)
        self._feed(progress)
        progress.finish()
        lines = out.getvalue().splitlines()
        assert lines[-1] == "[repro] 2/2 tasks · 0 running · 0 failed · "\
                            "1.0M ev/s"
        assert all(line.startswith("[repro] ") for line in lines)
        assert "\r" not in out.getvalue()

    def test_non_tty_throttles_intermediate_lines(self):
        out = io.StringIO()
        progress = ProgressLine(out, non_tty_interval=3600.0)
        self._feed(progress)
        progress.finish()
        # One throttled line at most, plus the guaranteed final summary.
        assert 1 <= len(out.getvalue().splitlines()) <= 2

    def test_eta_appears_while_tasks_remain(self):
        out = io.StringIO()
        progress = ProgressLine(out, non_tty_interval=0.0)
        progress({"kind": "event", "name": "fanout.start",
                  "attrs": {"tasks": 4}})
        progress({"kind": "span", "name": "cell.run", "status": "ok",
                  "dur_s": 2.0, "attrs": {"rows": 100}})
        assert "ETA" in progress.status()

    def test_rate_and_eta_formatting(self):
        assert format_rate(1_234_567) == "1.2M ev/s"
        assert format_rate(875_000) == "875k ev/s"
        assert format_rate(12) == "12 ev/s"
        assert format_eta(34) == "34s"
        assert format_eta(154) == "2m34s"
        assert format_eta(7260) == "2h01m"


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestCliTelemetry:
    def test_sweep_records_command_scoped_run(self, tmp_path, capsys):
        from repro.cli import main
        tel = str(tmp_path / "tel")
        assert main(["sweep", "MATMUL24", "--telemetry", tel]) == 0
        err = capsys.readouterr().err
        assert "[repro]" in err  # non-tty progress smoke
        (run_dir,) = find_runs(tel)
        manifest = load_manifest(run_dir)
        validate_manifest(manifest)
        assert manifest["argv"][:2] == ["sweep", "MATMUL24"]
        assert manifest["config"]["command"] == "sweep"
        assert validate_stream(os.path.join(run_dir, "events.jsonl")) > 0
        assert current_run() is None  # torn down after the command

    def test_quiet_flag_suppresses_progress(self, tmp_path, capsys):
        from repro.cli import main
        tel = str(tmp_path / "tel")
        assert main(["-q", "sweep", "MATMUL24", "--telemetry", tel]) == 0
        assert "[repro]" not in capsys.readouterr().err

    def test_report_command_renders_recorded_run(self, tmp_path, capsys):
        from repro.cli import main
        tel = str(tmp_path / "tel")
        assert main(["-q", "sweep", "MATMUL24", "--telemetry", tel]) == 0
        capsys.readouterr()
        assert main(["report", tel]) == 0
        out = capsys.readouterr().out
        assert "classify/32/dubois" in out
        assert "slowest spans" in out

    def test_run_recorded_before_the_fanout_rename_renders(self, tmp_path,
                                                           capsys):
        """A stream whose fan-out event still carries its old name,
        ``rung.start``, renders in ``report`` and ``trace`` exactly as
        it does under the new one."""
        from repro.cli import main
        tel = str(tmp_path / "tel")
        assert main(["-q", "sweep", "MATMUL24", "--telemetry", tel]) == 0
        (run_dir,) = find_runs(tel)
        capsys.readouterr()

        def render():
            assert main(["report", run_dir]) == 0
            assert main(["trace", run_dir]) == 0
            return capsys.readouterr().out

        current = render()
        events = os.path.join(run_dir, "events.jsonl")
        with open(events, encoding="utf-8") as fh:
            text = fh.read()
        assert '"fanout.start"' in text
        with open(events, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"fanout.start"', '"rung.start"'))
        assert render() == current

    def test_report_command_errors_cleanly_without_runs(self, tmp_path,
                                                        capsys):
        from repro.cli import main
        assert main(["report", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# run lifecycle details
# ----------------------------------------------------------------------
class TestRunTelemetry:
    def test_failed_run_writes_failed_manifest(self, tmp_path):
        with pytest.raises(RuntimeError):
            with RunTelemetry(str(tmp_path)) as run:
                run.recorder.event("sweep.start", trace="X",
                                   trace_key="k1", num_procs=1, events=10,
                                   cells=1, jobs=1)
                raise RuntimeError("boom")
        manifest = load_manifest(run.directory)
        validate_manifest(manifest)
        assert manifest["outcome"] == "failed"
        assert "RuntimeError: boom" in manifest["error"]

    def test_finish_is_idempotent(self, tmp_path):
        run = RunTelemetry(str(tmp_path))
        run.__enter__()
        run.finish()
        run.finish()
        assert load_manifest(run.directory)["outcome"] == "completed"
        assert current_run() is None

    def test_nested_runs_do_not_fight(self, tmp_path, trace):
        """An engine joins an already-active run instead of nesting."""
        tel = str(tmp_path / "outer")
        with RunTelemetry(tel) as outer:
            engine = SweepEngine(trace, telemetry_dir=str(tmp_path / "in"))
            engine.classify_sweep((64,))
            assert current_run() is outer
        assert not os.path.exists(str(tmp_path / "in"))
        manifest = load_manifest(outer.directory)
        assert [tuple(c["cell"]) for c in manifest["cells"]] == [
            ("classify", 64, "dubois")]
