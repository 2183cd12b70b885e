"""Interruption & self-healing suite: the robustness layer's contracts.

Covers the acceptance criteria of the interruptible-sweeps work:

* **journal recovery** — a torn final line (kill mid-``write``) is
  truncated away on open; a journal written by a different code release
  is rejected with :class:`~repro.errors.StaleJournalError`; compaction
  folds duplicates and absorbed shard partials; stray ``*.tmp`` files
  are garbage-collected on open;
* **two-phase shutdown** — the first signal stops dispatch and exits
  with the resumable code within the drain budget; a second signal
  forces immediate teardown, killing registered children;
* **heartbeat watchdog** — a slow-but-alive cell (progress counter
  advancing) survives a stall timeout shorter than its runtime, while a
  genuinely hung cell is still reaped within the timeout;
* **exit codes** — the CLI maps outcomes to the documented constants.

Everything runs against small synthetic grids so the whole file stays
in the sub-minute range.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from chaos import tear_jsonl_tail
from repro.classify.breakdown import DuboisBreakdown
from repro.errors import (
    EXIT_COMPLETED,
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    EXIT_RESOURCE_EXHAUSTED,
    StaleJournalError,
    SweepInterrupted,
)
from repro.runtime import RetryPolicy, Supervisor
from repro.runtime.checkpoint import CheckpointJournal, journal_digest
from repro.runtime.resources import gc_stale_tmp
from repro.runtime import signals

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

ONE_SHOT = RetryPolicy(max_attempts=1, base_delay=0.01, max_delay=0.02)
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


def _bd(n: int) -> DuboisBreakdown:
    return DuboisBreakdown(pc=n, cts=2, cfs=3, pts=4, pfs=5,
                           data_refs=n + 14)


# ----------------------------------------------------------------------
# journal: torn tail, stale header, compaction
# ----------------------------------------------------------------------
class TestTornTailRecovery:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        journal.record(("classify", 16, "dubois"), _bd(1))
        journal.record(("classify", 64, "dubois"), _bd(2))
        journal.close()
        assert tear_jsonl_tail(journal.path)

        recovered = CheckpointJournal(str(tmp_path), "k")
        completed = recovered.load()
        # The torn record is gone; the intact prefix survives.
        assert set(completed) == {("classify", 16, "dubois")}
        with open(recovered.path, "rb") as fh:
            assert fh.read().endswith(b"\n")

    def test_append_after_recovery_starts_on_clean_line(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        journal.record(("classify", 16, "dubois"), _bd(1))
        journal.record(("classify", 64, "dubois"), _bd(2))
        journal.close()
        tear_jsonl_tail(journal.path)

        # Without recovery this append would glue onto the torn fragment
        # and corrupt both records.
        repaired = CheckpointJournal(str(tmp_path), "k")
        repaired.record(("classify", 64, "dubois"), _bd(2))
        repaired.close()
        completed = CheckpointJournal(str(tmp_path), "k").load()
        assert completed == {("classify", 16, "dubois"): _bd(1),
                             ("classify", 64, "dubois"): _bd(2)}

    def test_tear_noop_on_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.jsonl"
        path.write_bytes(b"{}\n")
        assert not tear_jsonl_tail(str(path))


class TestJournalVersioning:
    def test_fresh_journal_starts_with_header(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        journal.record(("classify", 16, "dubois"), _bd(1))
        journal.close()
        first = json.loads(open(journal.path, encoding="utf-8").readline())
        assert first["kind"] == "repro-journal"
        assert first["digest"] == journal_digest("k")
        # ...and its own writer accepts it.
        assert CheckpointJournal(str(tmp_path), "k").load() != {}

    def test_stale_header_is_rejected_with_remedy(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        journal.record(("classify", 16, "dubois"), _bd(1))
        journal.close()
        # Rewrite the header as if an older release had written it.
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["digest"] = "0" * 16
        header["writer"] = "0.0.1"
        with open(journal.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([json.dumps(header)] + lines[1:]) + "\n")

        stale = CheckpointJournal(str(tmp_path), "k")
        with pytest.raises(StaleJournalError) as exc:
            stale.load()
        message = str(exc.value)
        assert "0.0.1" in message
        assert "--resume" in message  # the remedy, not just the diagnosis

    def test_stale_header_also_blocks_appends(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        journal.record(("classify", 16, "dubois"), _bd(1))
        journal.close()
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["digest"] = "f" * 16
        with open(journal.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(StaleJournalError):
            CheckpointJournal(str(tmp_path), "k").record(
                ("classify", 64, "dubois"), _bd(2))

    def test_legacy_headerless_journal_still_loads(self, tmp_path):
        path = tmp_path / "k.jsonl"
        record = {"v": 1, "key": "k", "cell": ["classify", 16, "dubois"],
                  "result": {"type": "DuboisBreakdown", "pc": 1, "cts": 2,
                             "cfs": 3, "pts": 4, "pfs": 5, "data_refs": 15}}
        path.write_text(json.dumps(record) + "\n")
        completed = CheckpointJournal(str(tmp_path), "k").load()
        assert completed == {("classify", 16, "dubois"): _bd(1)}


class TestCompaction:
    def test_duplicates_fold_to_latest(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        cell = ("classify", 16, "dubois")
        journal.record(cell, _bd(1))
        journal.record(cell, _bd(7))  # a retried run re-recorded the cell
        dropped = journal.compact()
        assert dropped == 1
        completed = CheckpointJournal(str(tmp_path), "k").load()
        assert completed == {cell: _bd(7)}

    def test_absorbed_shard_partials_dropped(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        parent = ("classify", 64, "dubois")
        for s in range(3):
            journal.record(("classify-shard", 64, "dubois", "d" * 8, s),
                           _bd(s))
        journal.record(parent, _bd(9))
        assert journal.compact() == 3
        completed = CheckpointJournal(str(tmp_path), "k").load()
        assert set(completed) == {parent}

    def test_orphan_shard_partials_survive(self, tmp_path):
        """Partials whose parent never merged are still worth resuming."""
        journal = CheckpointJournal(str(tmp_path), "k")
        partial = ("classify-shard", 64, "dubois", "d" * 8, 0)
        journal.record(partial, _bd(0))
        assert journal.compact() == 0
        assert set(CheckpointJournal(str(tmp_path), "k").load()) == {partial}

    def test_compact_noop_leaves_file_untouched(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        journal.record(("classify", 16, "dubois"), _bd(1))
        journal.close()
        before = open(journal.path, "rb").read()
        assert CheckpointJournal(str(tmp_path), "k").compact() == 0
        assert open(journal.path, "rb").read() == before

    def test_compact_leaves_no_tmp_files(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path), "k")
        cell = ("classify", 16, "dubois")
        journal.record(cell, _bd(1))
        journal.record(cell, _bd(2))
        journal.compact()
        assert not [n for n in os.listdir(tmp_path) if ".tmp" in n]


class TestTmpGC:
    def test_stale_tmp_reaped_fresh_kept(self, tmp_path):
        old = tmp_path / "entry.npz.1234.tmp"
        old.write_bytes(b"x")
        ancient = time.time() - 7200
        os.utime(old, (ancient, ancient))
        fresh = tmp_path / "entry.npz.5678.tmp"
        fresh.write_bytes(b"y")
        keeper = tmp_path / "entry.npz"
        keeper.write_bytes(b"z")

        assert gc_stale_tmp(str(tmp_path)) == 1
        assert not old.exists()
        assert fresh.exists()       # a live writer may still own it
        assert keeper.exists()      # never touch real entries

    def test_journal_open_reaps_stale_tmp(self, tmp_path):
        leak = tmp_path / "k.jsonl.999.tmp"
        leak.write_bytes(b"partial compaction")
        ancient = time.time() - 7200
        os.utime(leak, (ancient, ancient))
        CheckpointJournal(str(tmp_path), "k")
        assert not leak.exists()

    def test_trace_cache_open_reaps_stale_tmp(self, tmp_path):
        from repro.trace.cache import WorkloadTraceCache

        leak = tmp_path / "TRACE-abc.npz.4242.tmp"
        leak.write_bytes(b"partial write")
        ancient = time.time() - 7200
        os.utime(leak, (ancient, ancient))
        WorkloadTraceCache(str(tmp_path))
        assert not leak.exists()

    def test_age_guard_boundary_is_exact(self, tmp_path):
        """Just-under the guard survives; exactly at (or past) it is
        reaped — the boundary is the contract a live writer's safety
        rests on, so it is pinned, not approximate."""
        from repro.runtime.resources import DEFAULT_TMP_MAX_AGE_S

        now = time.time()
        just_under = tmp_path / "a.npz.1.tmp"
        just_under.write_bytes(b"x")
        os.utime(just_under, (now - (DEFAULT_TMP_MAX_AGE_S - 0.5),) * 2)
        exactly_at = tmp_path / "b.npz.2.tmp"
        exactly_at.write_bytes(b"y")
        os.utime(exactly_at, (now - DEFAULT_TMP_MAX_AGE_S,) * 2)

        assert gc_stale_tmp(str(tmp_path), now=now) == 1
        assert just_under.exists()
        assert not exactly_at.exists()

    def test_age_guard_env_override(self, tmp_path, monkeypatch):
        from repro.runtime.resources import (
            DEFAULT_TMP_MAX_AGE_S,
            resolve_tmp_max_age,
        )

        now = time.time()
        leak = tmp_path / "c.npz.3.tmp"
        leak.write_bytes(b"z")
        os.utime(leak, (now - 10.0,) * 2)

        # Default guard keeps a 10s-old file...
        assert gc_stale_tmp(str(tmp_path), now=now) == 0
        # ...a 5s env guard reaps it.
        monkeypatch.setenv("REPRO_TMP_MAX_AGE_S", "5")
        assert resolve_tmp_max_age() == 5.0
        assert gc_stale_tmp(str(tmp_path), now=now) == 1
        assert not leak.exists()
        # The explicit argument always wins over the environment.
        monkeypatch.setenv("REPRO_TMP_MAX_AGE_S", "1")
        assert resolve_tmp_max_age(42.0) == 42.0
        # A malformed override warns and falls back to the default.
        monkeypatch.setenv("REPRO_TMP_MAX_AGE_S", "soon")
        with pytest.warns(UserWarning, match="REPRO_TMP_MAX_AGE_S"):
            assert resolve_tmp_max_age() == DEFAULT_TMP_MAX_AGE_S


# ----------------------------------------------------------------------
# shutdown coordinator & cancellation points
# ----------------------------------------------------------------------
class TestShutdownCoordinator:
    def test_no_coordinator_is_a_noop(self):
        assert signals.get_shutdown() is None
        signals.check_interrupt()  # must not raise

    def test_request_turns_progress_into_interrupt(self):
        with signals.graceful_shutdown() as coord:
            signals.note_progress(10)  # fine before the request
            coord.request()
            with pytest.raises(SweepInterrupted):
                signals.check_interrupt()
            with pytest.raises(SweepInterrupted):
                signals.note_progress(1)
        signals.check_interrupt()  # uninstalled on exit

    def test_interruptible_sleep_wakes_early(self):
        with signals.graceful_shutdown() as coord:
            coord.request()
            t0 = time.monotonic()
            with pytest.raises(SweepInterrupted):
                signals.interruptible_sleep(30.0)
            assert time.monotonic() - t0 < 1.0

    def test_serial_supervisor_stops_between_cells(self):
        ran = []

        def runner(task):
            ran.append(task)
            signals.get_shutdown().request()
            return task

        with signals.graceful_shutdown():
            sup = Supervisor(runner, jobs=1, retry=ONE_SHOT)
            with pytest.raises(SweepInterrupted):
                sup.run([1, 2, 3])
        assert ran == [1]  # dispatch stopped after the request

    def test_second_signal_forces_immediate_teardown(self, tmp_path):
        """Double SIGINT: a wedged parent dies at once, taking its
        registered children with it, with the resumable exit code."""
        script = tmp_path / "wedge.py"
        script.write_text(f"""
import multiprocessing, sys, time
sys.path.insert(0, {SRC!r})
from repro.runtime.signals import graceful_shutdown

def napper():
    time.sleep(300)

if __name__ == "__main__":
    with graceful_shutdown() as coord:
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=napper)
        child.start()
        coord.register_process(child)
        print("ready", child.pid, flush=True)
        while True:
            time.sleep(0.05)  # no cancellation point: simulates a wedge
""")
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().split()
            assert line[0] == "ready"
            child_pid = int(line[1])
            proc.send_signal(signal.SIGINT)
            time.sleep(0.3)
            assert proc.poll() is None  # first signal alone: still draining
            proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=10)
            assert rc == EXIT_INTERRUPTED
            # The registered child must not outlive the forced teardown.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    os.kill(child_pid, 0)
                except ProcessLookupError:
                    break
                # still listed: may be a zombie awaiting its (dead)
                # parent's reaper -- PID 1 adoption clears it shortly.
                if open(f"/proc/{child_pid}/stat").read().split()[2] == "Z":
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"registered child {child_pid} survived "
                            "forced teardown")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


# ----------------------------------------------------------------------
# heartbeat watchdog: slow vs hung
# ----------------------------------------------------------------------
def _slow_but_alive(task):
    # ~0.6 s of runtime against a 0.25 s stall timeout, but the progress
    # counter ticks throughout -- the watchdog must never fire.
    marker, task = task
    with open(f"{marker}.{os.getpid()}.{task}", "w"):
        pass
    for _ in range(30):
        time.sleep(0.02)
        signals.note_progress(1)
    return task


class TestHeartbeatWatchdog:
    def test_slow_but_heartbeating_cell_is_never_killed(self, tmp_path):
        marker = str(tmp_path / "started")
        sup = Supervisor(_slow_but_alive, jobs=2, timeout=0.25,
                         retry=ONE_SHOT)
        assert sup.run([(marker, 0), (marker, 1)]) == [0, 1]
        # One start marker per task: a watchdog kill would have re-run
        # the cell (serial fallback) and left a second marker.
        starts = sorted(n.rsplit(".", 1)[1] for n in os.listdir(tmp_path))
        assert starts == ["0", "1"]

    def test_hung_cell_reaped_and_retried(self, tmp_path):
        """A frozen worker dies at ~timeout and the cell is retried."""
        from repro.runtime import FaultPlan

        attempts = tmp_path / "attempts"

        def runner(task):
            with open(attempts / f"{os.getpid()}.{task}", "w"):
                pass
            return task * 10

        attempts.mkdir()
        plan = FaultPlan(hang={1: 1}, hang_seconds=300.0)
        sup = Supervisor(runner, jobs=2, timeout=0.5, retry=FAST_RETRY,
                         fault_plan=plan)
        t0 = time.monotonic()
        assert sup.run([0, 1, 2]) == [0, 10, 20]
        elapsed = time.monotonic() - t0
        # Killed at ~timeout then retried -- nowhere near hang_seconds.
        assert 0.4 < elapsed < 30.0


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------
class TestExitCodes:
    def test_documented_constants(self):
        assert EXIT_COMPLETED == 0
        assert EXIT_FAILED == 2
        assert EXIT_RESOURCE_EXHAUSTED == 3
        assert EXIT_INTERRUPTED == 75  # sysexits.h EX_TEMPFAIL

    def test_cli_maps_repro_errors_to_exit_failed(self, capsys):
        from repro.cli import main

        rc = main(["classify", "NOT_A_WORKLOAD", "--block", "64"])
        assert rc == EXIT_FAILED
        assert "error:" in capsys.readouterr().err

    def test_sigint_mid_sweep_exits_resumable_fast(self, tmp_path):
        """First SIGINT during a real multi-cell sweep: resumable exit
        code, prompt exit, journal on disk, no stray temp files."""
        ckpt = tmp_path / "ckpt"
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "MP3D1000",
             "--jobs", "2", "--resume", str(ckpt)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            # Wait for the journal to appear so the kill lands mid-sweep.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if ckpt.is_dir() and any(
                        n.endswith(".jsonl") for n in os.listdir(ckpt)):
                    break
                if proc.poll() is not None:
                    pytest.skip("sweep finished before the signal landed")
                time.sleep(0.05)
            t0 = time.monotonic()
            proc.send_signal(signal.SIGINT)
            stderr = proc.stderr.read()
            rc = proc.wait(timeout=30)
            drain = time.monotonic() - t0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
        if rc == 0:
            pytest.skip("sweep finished before the signal landed")
        assert rc == EXIT_INTERRUPTED
        assert drain < 5.0
        assert "--resume" in stderr  # the operator hint
        assert not [n for n in os.listdir(ckpt) if ".tmp" in n]
