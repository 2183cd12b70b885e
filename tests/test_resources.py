"""Resource-governor suite: budgets, OOM classification, degradation.

Covers the acceptance criteria of the resource-governance layer:

* human-size parsing and exitcode classification units (SIGKILL/137 is
  OOM-class and spelled by signal name, SIGSEGV is crash-class);
* the budget is a per-worker cap: a budget that fits takes no ladder
  step, and one below a worker's growth ends serial;
* a worker ``MemoryError`` is classified ``oom`` and, while the run's
  OOM ladder has a step left, aborts with a structured
  :class:`~repro.errors.ResourceExhaustedError` carrying attempt history
  and partials;
* the headline guarantee: a sweep whose workers *always* exhaust memory
  degrades down the ladder to serial in-process execution and still
  produces results bit-identical to an unconstrained run, and every range
  part finished before an OOM hand-off is reused, never re-run.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import warnings

import pytest

import repro
from repro.analysis.engine import ExecutionOptions, SweepEngine
from repro.kernels import protocols as kernel_protocols
from repro.mem.addresses import BlockMap
from repro.obs import find_runs, load_manifest
from repro.cli import build_parser, _engine_options
from repro.errors import (
    CellFailedError,
    ConfigError,
    ResourceExhaustedError,
)
from repro.runtime import (
    FaultPlan,
    RetryPolicy,
    Supervisor,
    exhaust_address_space,
)
from repro.runtime.policy import OomLadder, cell_failed, classify_exitcode
from repro.runtime.resources import (
    MEMORY_BUDGET_ENV,
    ensure_free_space,
    format_size,
    parse_size,
    peak_rss_bytes,
    resolve_memory_budget,
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
def mp3d200():
    """The whole MP3D200 trace: several default batches."""
    return make_workload("MP3D200").generate()


@pytest.fixture(scope="module")
def clean_sweep(trace):
    """The unconstrained serial sweep every governed run must reproduce."""
    return SweepEngine(trace).classify_sweep(SIZES)


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

    def test_resolve_budget_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1G")
        assert resolve_memory_budget(123) == 123
        assert resolve_memory_budget(None) == 1 << 30
        monkeypatch.delenv(MEMORY_BUDGET_ENV)
        assert resolve_memory_budget(None) is None


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


def _rungs(jobs):
    """The ``(jobs, label)`` configurations an :class:`OomLadder` walks
    through, one OOM hand-off per step, until it aborts."""
    ladder = OomLadder(jobs)
    rungs = [(ladder.jobs, ladder.label)]
    oom = ResourceExhaustedError("worker out of memory", kind="memory")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while not ladder.spent:
            ladder.step(oom)
            rungs.append((ladder.jobs, ladder.label))
    with pytest.raises(ResourceExhaustedError):
        ladder.step(oom)  # spent: the hand-off propagates (exit 3)
    return rungs


class TestDegradationRungs:
    def test_full_ladder(self):
        assert _rungs(8) == [
            (8, "configured"),
            (4, "halved workers (8 -> 4)"),
            (1, "serial in-process")]

    def test_small_engines_skip_degenerate_rungs(self):
        assert _rungs(2) == [(2, "configured"), (1, "serial in-process")]
        assert _rungs(1) == [(1, "configured"), (1, "serial in-process")]

    def test_disk_exhaustion_is_not_degraded(self):
        ladder = OomLadder(8)
        with pytest.raises(ResourceExhaustedError):
            ladder.step(ResourceExhaustedError("disk full", kind="disk"))
        assert (ladder.jobs, ladder.label) == (8, "configured")


# ----------------------------------------------------------------------
# per-worker RLIMIT_AS caps
# ----------------------------------------------------------------------
class TestWorkerRlimit:
    def test_none_is_a_noop(self):
        from repro.runtime.resources import apply_worker_rlimit
        assert apply_worker_rlimit(None) is None

    def test_capped_process_gets_clean_memoryerror(self):
        """A capped process fails a big allocation with MemoryError."""
        code = (
            "from repro.runtime.resources import apply_worker_rlimit\n"
            "installed = apply_worker_rlimit(64 << 20)\n"
            "assert installed, 'no cap could be installed'\n"
            "try:\n"
            "    block = bytearray(512 << 20)\n"
            "    print('UNCAPPED')\n"
            "except MemoryError:\n"
            "    print('CLEAN-OOM')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "CLEAN-OOM"

    def test_exhaust_fault_raises_without_a_cap(self):
        # In an uncapped process the fault must not actually allocate.
        with pytest.raises(MemoryError, match="exhaust_memory"):
            exhaust_address_space()

    def test_peak_rss_is_measurable(self):
        assert peak_rss_bytes("self") > 0


# ----------------------------------------------------------------------
# supervisor OOM semantics
# ----------------------------------------------------------------------
class TestSupervisorOOM:
    def test_worker_memoryerror_retries_by_default(self):
        plan = FaultPlan(exhaust_memory={1: 1})  # task index 1, attempt 1
        sup = Supervisor(lambda t: t * 2, jobs=2, retry=FAST_RETRY,
                         fault_plan=plan)
        assert sup.run(["a", "b", "c", "d"]) == ["aa", "bb", "cc", "dd"]

    def test_oom_with_ladder_step_left_raises_structured_error(self):
        plan = FaultPlan(exhaust_memory={1: 99})  # task index 1, forever
        sup = Supervisor(lambda t: t * 2, jobs=2, retry=FAST_RETRY,
                         fault_plan=plan)
        with pytest.raises(ResourceExhaustedError) as ei:
            sup.run(["a", "b", "c", "d"], ladder=OomLadder(2))
        exc = ei.value
        assert exc.kind == "memory"
        assert exc.cell == "b"
        assert exc.attempts[-1]["kind"] == "oom"
        assert all(v == t * 2 for t, v in exc.partial.items())

    def test_rejects_unknown_fail_kind(self):
        from types import SimpleNamespace

        att = SimpleNamespace(task="t", attempts=1, history=[
            {"attempt": 1, "where": "worker", "error": "boom",
             "kind": "explode"}])
        with pytest.raises(ValueError, match="explode"):
            cell_failed(att, FAST_RETRY)

    def test_sigkilled_worker_classified_oom_by_name(self):
        """A worker SIGKILL death surfaces as OOM-class, spelled SIGKILL."""
        def runner(task):
            if (task == "victim" and multiprocessing.current_process()
                    .name != "MainProcess"):
                os.kill(os.getpid(), signal.SIGKILL)
            return task

        sup = Supervisor(runner, jobs=2, retry=FAST_RETRY)
        with pytest.raises(ResourceExhaustedError) as ei:
            sup.run(["a", "victim", "b", "c"], ladder=OomLadder(2))
        last = ei.value.attempts[-1]
        assert last["kind"] == "oom"
        assert "SIGKILL" in last["error"]

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
# the budget is a per-worker cap
# ----------------------------------------------------------------------
def _ladder_steps(tel: str) -> int:
    (run,) = find_runs(tel)
    return load_manifest(run)["counters"]["ladder_steps"]


class TestMemoryBudget:
    def test_fitting_budget_takes_no_ladder_step(self, mp3d200, tmp_path):
        """1 GiB at --jobs 2 caps each worker's growth at 512 MiB, far
        above what a Figure 5 panel of MP3D200 needs: no worker hits its
        cap, so the grid never steps down the ladder."""
        tel = str(tmp_path / "tel")
        engine = SweepEngine(mp3d200, jobs=2, memory_budget=1 << 30,
                             retry=FAST_RETRY, telemetry_dir=tel)
        panel = engine.classify_sweep(SIZES)
        assert panel == SweepEngine(mp3d200).classify_sweep(SIZES)
        assert _ladder_steps(tel) == 0

    def test_rejects_nonpositive_budget(self, trace):
        with pytest.raises(ConfigError, match="positive"):
            SweepEngine(trace, jobs=2, memory_budget=0)


# ----------------------------------------------------------------------
# the degradation ladder, end to end
# ----------------------------------------------------------------------
class TestDegradationLadder:
    @pytest.fixture
    def four_ranges(self, monkeypatch):
        """Batches of at most 512 rows, so the 6000-event trace cuts into
        a range per worker (forked workers inherit the setting)."""
        monkeypatch.setattr(kernel_protocols, "BATCH_ROWS", 512)

    def test_always_oom_workers_degrade_to_serial_bit_identical(
            self, trace, clean_sweep, four_ranges):
        """Headline acceptance: every worker attempt exhausts memory, yet
        the sweep finishes — serial-degraded — with results bit-identical
        to the unconstrained run, and no kernel OOM kill involved."""
        # Key the fault by task *index* so it fires for every range task
        # of every pool rung; it never fires on the serial in-process path
        # (worker-only, like a real worker OOM).
        plan = FaultPlan(exhaust_memory={i: 99 for i in range(64)})
        engine = SweepEngine(trace, jobs=4, retry=FAST_RETRY,
                             fault_plan=plan)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            panel = engine.classify_sweep(SIZES)
        assert panel == clean_sweep
        messages = [str(w.message) for w in caught]
        assert any("OOM-class failure" in m for m in messages), messages
        assert any("serial in-process" in m for m in messages), messages

    def test_ladder_salvages_partials_between_rungs(self, trace,
                                                    clean_sweep, tmp_path,
                                                    four_ranges):
        """An OOM hand-off at --jobs 4 halves the workers and reuses every
        range part finished before it: no part runs again.  The update
        protocol's task (an interpreted cell, one task) exhausts memory in
        every worker; it waits for a free worker, so at least one of the
        four range tasks of the classify cells has finished by then."""
        wu = ("protocol", 64, "WU")
        cells = [("classify", bb, "dubois") for bb in SIZES] + [wu]
        tel = str(tmp_path / "tel")
        engine = SweepEngine(trace, jobs=4, retry=FAST_RETRY,
                             fault_plan=FaultPlan(exhaust_memory={wu: 99}),
                             telemetry_dir=tel)
        plan = engine.precompute.shard_plan(BlockMap(max(SIZES)), 4)
        assert plan.num_ranges == 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = engine.run_grid(cells)
        assert tuple(results[:-1]) == clean_sweep.breakdowns
        assert results[-1] == SweepEngine(trace).run_grid([wu])[0]
        (run,) = find_runs(tel)
        with open(os.path.join(run, "events.jsonl")) as fh:
            events = [r for r in map(json.loads, fh)
                      if r.get("kind") == "event"]
        steps = [i for i, e in enumerate(events)
                 if e["name"] == "ladder.step"]
        assert events[steps[0]]["attrs"]["next_rung"] == (
            "halved workers (4 -> 2)")
        done = {json.dumps(e["attrs"]["cell"]) for e in events[:steps[0]]
                if e["name"] == "task.done"}
        assert done, "no range finished before the hand-off"
        rerun = {json.dumps(e["attrs"]["cell"]) for e in events[steps[0]:]
                 if e["name"] == "task.assigned"}
        assert not done & rerun
        # Every range ran to completion exactly once.
        finished = [json.dumps(e["attrs"]["cell"]) for e in events
                    if e["name"] == "task.done"]
        assert len(finished) == len(set(finished)) == 5

    def test_over_budget_engine_runs_serial_and_completes(self):
        """A budget below one worker's growth (1 KiB each): every worker
        of every pool rung hits its cap, and the ladder ends serial,
        where the run completes uncapped with the unconstrained output.
        It runs in a fresh process: a worker forked from a long-lived one
        may find its growth in the heap it inherited."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        args = [sys.executable, "-m", "repro", "sweep", "MP3D200"]
        budgeted = subprocess.run(
            args + ["--jobs", "4", "--memory-budget", "4K"], env=env,
            capture_output=True, text=True, timeout=300)
        plain = subprocess.run(args, env=env, capture_output=True,
                               text=True, timeout=300)
        assert budgeted.returncode == plain.returncode == 0, budgeted.stderr
        assert budgeted.stdout == plain.stdout
        assert "degrading to 'serial in-process'" in budgeted.stderr

    def test_env_budget_governs_without_flags(self, trace, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1024")
        engine = SweepEngine(trace, jobs=2)
        assert engine.memory_budget == 1024


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
    def test_memory_budget_flag_parses_sizes(self):
        args = build_parser().parse_args(
            ["fig5", "--memory-budget", "512M"])
        assert args.memory_budget == 512 << 20

    def test_cache_max_bytes_flag_parses_sizes(self):
        args = build_parser().parse_args(
            ["fig5", "--trace-cache", "--cache-max-bytes", "1G"])
        assert args.cache_max_bytes == 1 << 30

    def test_bad_size_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--memory-budget", "lots"])
        assert "cannot parse size" in capsys.readouterr().err

    def test_engine_options_thread_the_budget(self):
        args = build_parser().parse_args(
            ["fig5", "--memory-budget", "256M"])
        options = _engine_options(args)
        assert options is not None
        assert options.memory_budget == 256 << 20
        assert options.engine_kwargs()["memory_budget"] == 256 << 20

    def test_defaults_leave_options_none(self):
        assert _engine_options(build_parser().parse_args(["fig5"])) is None

    def test_execution_options_default_budget_is_none(self):
        assert ExecutionOptions().memory_budget is None
