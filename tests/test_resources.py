"""Resource suite: sizes, OOM classification, dead workers, disk.

Covers the acceptance criteria of the resource layer:

* human-size parsing and exitcode classification units (SIGKILL/137 is
  OOM-class and spelled by signal name, SIGSEGV is crash-class);
* a worker ``MemoryError`` or SIGKILL is classified ``oom`` and takes
  the same path as a crash: retried, then run serially in-process;
* the headline guarantee: a sweep whose workers are *always* SIGKILLed
  completes through the serial fallback with results bit-identical to
  the serial run;
* the disk preflight and the size flags of the CLI.
"""

import logging
import multiprocessing
import os
import signal

import pytest

from repro.analysis.engine import SweepEngine
from repro.kernels import protocols as kernel_protocols
from repro.obs import Recorder, use_recorder
from repro.cli import build_parser, _engine_options
from repro.errors import (
    CellFailedError,
    ConfigError,
    ResourceExhaustedError,
)
from repro.runtime import RetryPolicy, Supervisor
from repro.runtime.policy import cell_failed, classify_exitcode
from repro.runtime.resources import (
    ensure_free_space,
    format_size,
    parse_size,
    peak_rss_bytes,
)
from repro.trace.trace import Trace
from repro.workloads.registry import make_workload

#: Block sizes of the Figure-5-style acceptance sweep.
SIZES = (4, 16, 64, 256, 1024)

#: Fast retry policy so failure scenarios stay sub-second.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


@pytest.fixture(scope="module")
def trace():
    """A deterministic prefix of MP3D200 (structure without scale)."""
    full = make_workload("MP3D200").generate()
    return Trace(full.events[:6000], full.num_procs, name="MP3D200")


@pytest.fixture(scope="module")
def clean_sweep(trace):
    """The serial sweep every run with dying workers must reproduce."""
    return SweepEngine(trace).classify_sweep(SIZES)


def _in_worker() -> bool:
    return multiprocessing.current_process().name != "MainProcess"


def _failed_events(rec) -> list:
    return [r["attrs"] for r in rec.drain()
            if r.get("kind") == "event" and r.get("name") == "task.failed"]


# ----------------------------------------------------------------------
# size parsing
# ----------------------------------------------------------------------
class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("4096", 4096),
        ("512M", 512 << 20),
        ("512MB", 512 << 20),
        ("1.5G", int(1.5 * (1 << 30))),
        ("2k", 2048),
        ("0", 0),
        (1234, 1234),  # ints pass through
    ])
    def test_accepts(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "12X", "1.2.3G", "-1G"])
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_size(text)

    def test_format_size_roundtrips_magnitude(self):
        assert format_size(512) == "512B"
        assert format_size(512 << 20) == "512.0M"
        assert parse_size(format_size(3 << 30)) == 3 << 30

# ----------------------------------------------------------------------
# exitcode classification (satellite: signal names in attempt history)
# ----------------------------------------------------------------------
class TestClassifyExitcode:
    def test_sigkill_is_oom_class_and_named(self):
        kind, desc = classify_exitcode(-int(signal.SIGKILL))
        assert kind == "oom"
        assert "SIGKILL" in desc

    def test_shell_style_137_is_oom_class(self):
        kind, desc = classify_exitcode(137)
        assert kind == "oom"
        assert "SIGKILL" in desc

    def test_sigsegv_is_crash_class_and_named(self):
        kind, desc = classify_exitcode(-int(signal.SIGSEGV))
        assert kind == "crash"
        assert "SIGSEGV" in desc

    def test_nonzero_exit_is_crash(self):
        assert classify_exitcode(17)[0] == "crash"

    def test_clean_exit_with_work_outstanding(self):
        assert classify_exitcode(0)[0] == "exit"

    def test_unknown_status(self):
        assert classify_exitcode(None)[0] == "crash"


# ----------------------------------------------------------------------
# worker resource readings
# ----------------------------------------------------------------------
class TestWorkerRlimit:
    def test_peak_rss_is_measurable(self):
        assert peak_rss_bytes("self") > 0


# ----------------------------------------------------------------------
# supervisor OOM semantics
# ----------------------------------------------------------------------
class TestSupervisorOOM:
    def test_worker_memoryerror_retries_by_default(self):
        """A MemoryError in a worker is ``oom``: retried, then run in
        the serial fallback, where the runner completes the task."""
        def runner(task):
            if task == "b" and _in_worker():
                raise MemoryError("worker out of memory")
            return task * 2

        rec = Recorder.buffering()
        sup = Supervisor(runner, jobs=2, retry=FAST_RETRY)
        with use_recorder(rec):
            assert sup.run(["a", "b", "c", "d"]) == ["aa", "bb", "cc", "dd"]
        failed = _failed_events(rec)
        assert [f["fail_kind"] for f in failed] == ["oom", "oom"]
        assert [f["action"] for f in failed] == ["retry", "fallback"]

    def test_rejects_unknown_fail_kind(self):
        from types import SimpleNamespace

        att = SimpleNamespace(task="t", attempts=1, history=[
            {"attempt": 1, "where": "worker", "error": "boom",
             "kind": "explode"}])
        with pytest.raises(ValueError, match="explode"):
            cell_failed(att, FAST_RETRY)

    def test_sigkilled_worker_classified_oom_by_name(self, caplog):
        """A worker SIGKILL death surfaces as OOM-class, spelled SIGKILL,
        and the serial fallback completes the task."""
        def runner(task):
            if task == "victim" and _in_worker():
                os.kill(os.getpid(), signal.SIGKILL)
            return task

        rec = Recorder.buffering()
        sup = Supervisor(runner, jobs=2, retry=FAST_RETRY)
        with use_recorder(rec), caplog.at_level(logging.WARNING,
                                                logger="repro"):
            assert sup.run(["a", "victim", "b", "c"]) == [
                "a", "victim", "b", "c"]
        assert {f["fail_kind"] for f in _failed_events(rec)} == {"oom"}
        deaths = [r.getMessage() for r in caplog.records
                  if "victim" in r.getMessage()]
        assert deaths and all("(oom): worker killed by SIGKILL" in m
                              for m in deaths), deaths

    def test_signal_name_in_cellfailed_attempt_history(self):
        """Satellite: dead-worker errors name the signal, not a bare code."""
        def runner(task):
            if task == "victim":
                if (multiprocessing.current_process().name
                        != "MainProcess"):
                    os.kill(os.getpid(), signal.SIGTERM)
                raise RuntimeError("serial fallback fails too")
            return task

        sup = Supervisor(runner, jobs=2, retry=FAST_RETRY)
        with pytest.raises(CellFailedError) as ei:
            sup.run(["a", "victim", "b", "c"])
        history = ei.value.attempts
        assert any(h.get("kind") == "crash"
                   and "SIGTERM" in (h.get("error") or "")
                   for h in history), history


# ----------------------------------------------------------------------
# killed workers, end to end
# ----------------------------------------------------------------------
class TestKilledWorkers:
    def test_sigkilled_workers_fall_back_to_serial_bit_identical(
            self, trace, clean_sweep, monkeypatch, caplog):
        """Headline acceptance: every worker attempt is SIGKILLed, as the
        kernel OOM killer would, yet the grid completes through the
        serial fallback with results bit-identical to the serial run,
        and every death is recorded as an ``oom`` naming SIGKILL."""
        # Batches of at most 512 rows cut the 6000-event trace into a
        # range task per worker (forked workers inherit the setting).
        monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 512)
        engine = SweepEngine(trace, jobs=4, retry=FAST_RETRY)
        run_cell = engine.precompute.run_cell

        def killed_in_workers(task):
            if _in_worker():
                os.kill(os.getpid(), signal.SIGKILL)
            return run_cell(task)

        engine.precompute.run_cell = killed_in_workers
        rec = Recorder.buffering()
        with use_recorder(rec), caplog.at_level(logging.WARNING,
                                                logger="repro"):
            panel = engine.classify_sweep(SIZES)
        assert panel == clean_sweep
        failed = _failed_events(rec)
        # Four range tasks, each killed on both worker attempts.
        assert len(failed) == 8
        assert {f["fail_kind"] for f in failed} == {"oom"}
        assert sorted(f["action"] for f in failed) == (
            ["fallback"] * 4 + ["retry"] * 4)
        deaths = [r.getMessage() for r in caplog.records
                  if "failed in worker" in r.getMessage()]
        assert len(deaths) == 8
        assert all("(oom): worker killed by SIGKILL" in m
                   for m in deaths), deaths


# ----------------------------------------------------------------------
# disk preflight
# ----------------------------------------------------------------------
class TestDiskPreflight:
    def test_impossible_requirement_raises_disk_kind(self, tmp_path):
        with pytest.raises(ResourceExhaustedError) as ei:
            ensure_free_space(str(tmp_path), 1 << 62, label="test write")
        exc = ei.value
        assert exc.kind == "disk"
        assert exc.needed_bytes == 1 << 62
        assert "test write" in str(exc)

    def test_satisfiable_requirement_passes(self, tmp_path):
        ensure_free_space(str(tmp_path), 1, label="test write")

    def test_missing_directory_probes_existing_parent(self, tmp_path):
        ensure_free_space(str(tmp_path / "not" / "yet" / "made"), 1)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestCli:
    def test_cache_max_bytes_flag_parses_sizes(self):
        args = build_parser().parse_args(
            ["fig5", "--trace-cache", "--cache-max-bytes", "1G"])
        assert args.cache_max_bytes == 1 << 30

    def test_bad_size_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--trace-cache",
                                       "--cache-max-bytes", "lots"])
        assert "cannot parse size" in capsys.readouterr().err

    def test_defaults_leave_options_none(self):
        assert _engine_options(build_parser().parse_args(["fig5"])) is None
