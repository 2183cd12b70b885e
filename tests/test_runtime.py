"""Resilience suite: supervisor semantics under deterministic faults.

Covers the acceptance criteria of the fault-tolerant execution layer:

* a worker crash mid-grid is retried and the sweep completes with results
  identical to a clean serial run;
* a hung cell hits the wall-clock timeout, its worker is killed and the
  cell retried;
* exhausted retries raise :class:`~repro.errors.CellFailedError` carrying
  the cell, its attempt history and the partial grid results;
* cells that fail repeatedly in workers degrade to a serial in-process
  fallback;
* a sweep killed mid-grid resumes from the checkpoint journal, re-running
  only the incomplete cells (verified by journal inspection).

Every fault is injected through :class:`repro.runtime.FaultPlan`, keyed
by ``(cell, attempt)``, so each scenario replays identically.
"""

import json
import os
import time

import pytest

from repro.analysis.engine import ExecutionOptions, SweepEngine, _resolve_jobs
from repro.kernels import protocols as kernel_protocols
from repro.classify.breakdown import DuboisBreakdown, SimpleBreakdown
from repro.classify.compare import ClassificationComparison
from repro.errors import (
    EXIT_FAILED,
    CellFailedError,
    ConfigError,
    InvariantViolationError,
)
from repro.protocols.results import Counters, ProtocolResult
from repro.runtime import (
    CheckpointJournal,
    FaultInjectedError,
    FaultPlan,
    RetryPolicy,
    Supervisor,
)
from repro.runtime.checkpoint import decode_result, encode_result
from repro.runtime.supervisor import EndpointLostError, _ForkEndpoint
from repro.trace.trace import Trace
from repro.workloads.registry import make_workload

#: Block sizes of the Figure-5-style acceptance sweep.
SIZES = (4, 16, 64, 256, 1024)

#: Fast retry policy so fault scenarios stay sub-second.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05)


@pytest.fixture(scope="module")
def trace():
    """A deterministic prefix of MP3D200 (structure without scale)."""
    full = make_workload("MP3D200").generate()
    return Trace(full.events[:6000], full.num_procs, name="MP3D200")


@pytest.fixture(scope="module", autouse=True)
def small_batches():
    """Batches of at most 257 rows, so the 6000-event trace cuts into a
    range per worker (forked workers inherit the setting)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_protocols, "BATCH_ROWS", 257)
        yield


@pytest.fixture(scope="module")
def clean_sweep(trace):
    """The clean serial Figure-5 sweep every fault run must reproduce."""
    return SweepEngine(trace).classify_sweep(SIZES)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_capped_exponential_delays(self):
        p = RetryPolicy(max_attempts=5, base_delay=0.1, backoff=2.0,
                        max_delay=0.5)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.4)
        assert p.delay(4) == pytest.approx(0.5)  # capped
        assert p.delay(10) == pytest.approx(0.5)

    def test_from_retries(self):
        assert RetryPolicy.from_retries(2).max_attempts == 3

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)

    def test_jitter_off_by_default_stays_deterministic(self):
        p = RetryPolicy(max_attempts=5, base_delay=0.1, backoff=2.0,
                        max_delay=0.5)
        # The exact capped-exponential schedule, attempt-indexed and
        # replayable — the property the fault-injection suites rely on.
        assert [p.delay(i) for i in (1, 2, 3, 1)] == \
            pytest.approx([0.1, 0.2, 0.4, 0.1])

    def test_shrinking_backoff_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(backoff=0.5)


# ----------------------------------------------------------------------
# supervisor semantics (fault-injection hooks)
# ----------------------------------------------------------------------
class TestSupervisor:
    def test_serial_matches_map(self):
        sup = Supervisor(lambda x: x * x, jobs=1)
        assert sup.run([1, 2, 3]) == [1, 4, 9]

    def test_forked_matches_map(self):
        sup = Supervisor(lambda x: x * x, jobs=2)
        assert sup.run(list(range(8))) == [x * x for x in range(8)]

    def test_on_result_fires_per_fresh_task(self):
        seen = []
        sup = Supervisor(lambda x: x + 1, jobs=1)
        sup.run([5, 6], on_result=lambda task, res: seen.append((task, res)))
        assert seen == [(5, 6), (6, 7)]

    def test_serial_retries_then_raises_with_partials(self):
        plan = FaultPlan(raises={1: 99})  # task index 1 always fails
        sup = Supervisor(lambda x: x, jobs=1, retry=FAST_RETRY,
                         fault_plan=plan)
        with pytest.raises(CellFailedError) as exc_info:
            sup.run(["a", "b", "c"])
        err = exc_info.value
        assert err.cell == "b"
        assert len(err.attempts) == FAST_RETRY.max_attempts
        assert all(a["where"] == "serial" for a in err.attempts)
        assert err.partial == {"a": "a"}  # completed before the failure

    def test_exhausted_group_task_is_named_by_its_label(self):
        """A group task that runs out of attempts is named in the error
        message by its label, not by its whole tuple; ``exc.cell``
        keeps the full task."""
        from repro.mem.addresses import PAPER_BLOCK_SIZES
        from repro.runtime.policy import GROUP, task_label

        task = (GROUP,) + tuple(("classify-shard", bb, "dubois",
                                 "0123456789abcdef", 0)
                                for bb in PAPER_BLOCK_SIZES)

        def runner(t):
            raise RuntimeError("always fails")

        sup = Supervisor(runner, jobs=1, retry=FAST_RETRY)
        with pytest.raises(CellFailedError) as exc_info:
            sup.run([task])
        err = exc_info.value
        assert err.cell == task
        assert str(err) == (f"cell {task_label(task)} failed after "
                            f"{FAST_RETRY.max_attempts} attempt(s)")
        assert repr(task[1]) not in str(err)


class TestForkEndpointTornFrames:
    """A worker's reply pipe can die two ways, and both are endpoint loss.

    The supervisor once caught only ``(EOFError, OSError)`` around
    ``conn.recv()`` — a torn pickle frame (worker killed mid-``send``)
    raised ``UnpicklingError`` and crashed the whole sweep.  The fork
    endpoint now classifies both shapes as endpoint loss."""

    def test_closed_pipe_is_clean_loss(self):
        import multiprocessing

        a, b = multiprocessing.Pipe()
        a.close()

        class _Stub:
            conn = b

        with pytest.raises(EndpointLostError) as exc_info:
            _ForkEndpoint.recv(_Stub())
        assert not exc_info.value.garbled
        b.close()

    def test_torn_pickle_is_garbled_loss(self):
        import multiprocessing

        a, b = multiprocessing.Pipe()
        a.send_bytes(b"\x80\x04not really a pickle")

        class _Stub:
            conn = b

        with pytest.raises(EndpointLostError) as exc_info:
            _ForkEndpoint.recv(_Stub())
        assert exc_info.value.garbled
        a.close()
        b.close()


class TestEngineFaults:
    def test_worker_crash_mid_grid_retries_and_completes(self, trace,
                                                         clean_sweep):
        plan = FaultPlan(crash={1: 1})  # kill the 2nd cell's worker once
        engine = SweepEngine(trace, jobs=3, retry=FAST_RETRY,
                             fault_plan=plan)
        assert engine.classify_sweep(SIZES) == clean_sweep

    def test_hang_hits_timeout_and_retries(self, trace, clean_sweep):
        plan = FaultPlan(hang={2: 1})  # 3rd cell hangs on its 1st attempt
        engine = SweepEngine(trace, jobs=3, timeout=2.0, retry=FAST_RETRY,
                             fault_plan=plan)
        assert engine.classify_sweep(SIZES) == clean_sweep

    def test_crash_and_hang_together_match_clean_serial(self, trace,
                                                        clean_sweep):
        """The acceptance scenario: injected crash-on-Nth-cell plus an
        injected per-cell hang; results identical to a clean serial run.

        Five kernel cells at ``jobs=3`` run as three range tasks, each
        over all five cells.  The crash kills task 1's worker; the hang
        lands on task 0."""
        plan = FaultPlan(crash={1: 1}, hang={0: 1})
        engine = SweepEngine(trace, jobs=3, timeout=2.0, retry=FAST_RETRY,
                             fault_plan=plan)
        t0 = time.monotonic()
        assert engine.classify_sweep(SIZES) == clean_sweep
        # The hang fired: its task ran until the timeout killed it.
        assert time.monotonic() - t0 >= 1.9

    def test_repeated_worker_failures_degrade_to_serial(self, trace,
                                                        clean_sweep):
        # Crash on *every* worker attempt: only the in-process fallback
        # (where crash faults cannot fire) can complete the cell.
        plan = FaultPlan(crash={1: 10_000})
        engine = SweepEngine(trace, jobs=2, retry=FAST_RETRY,
                             fault_plan=plan)
        assert engine.classify_sweep(SIZES) == clean_sweep

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhausted_retries_raise_cell_failed(self, trace, jobs):
        # Raise faults fire on the serial path too, so every attempt —
        # including the fallback — fails deterministically.  Each of the
        # grid's ``jobs`` range tasks runs every kernel cell, so the
        # fault is keyed by its cell and fails every range.
        cells = [("classify", bb, "dubois") for bb in SIZES]
        plan = FaultPlan(raises={cells[2]: 10_000})
        engine = SweepEngine(trace, jobs=jobs, retry=FAST_RETRY,
                             fault_plan=plan)
        with pytest.raises(CellFailedError) as exc_info:
            engine.classify_sweep(SIZES)
        err = exc_info.value
        assert err.cell[0] == "group"
        assert [m[:3] for m in err.cell[1:]] == [
            (f"classify{'-shard' if jobs > 1 else ''}", bb, "dubois")
            for bb in SIZES]
        assert err.attempts, "attempt history must be carried"
        assert all("FaultInjectedError" in (a["error"] or "")
                   for a in err.attempts)
        # Partial results carry completed parts, keyed by member.
        for cell, result in err.partial.items():
            assert cell[0] in ("classify", "classify-shard")
            assert isinstance(result, DuboisBreakdown)

    def test_cell_key_matches_its_group_and_shards(self):
        cell = ("classify", 64, "dubois")
        plan = FaultPlan(crash={cell: 1})
        assert plan.should_crash(cell, 1)
        assert plan.should_crash(("group", ("classify", 16, "dubois"), cell),
                                 1)
        assert plan.should_crash(("classify-shard", 64, "dubois", "d", 1), 1)
        assert not plan.should_crash(("classify-shard", 16, "dubois", "d", 1),
                                     1)
        assert plan.should_crash(("group",
                                  ("classify-shard", 16, "dubois", "d", 1),
                                  ("classify-shard", 64, "dubois", "d", 1)),
                                 1)
        assert not plan.should_crash(cell, 2)

    def test_fault_injected_error_is_reproducible(self):
        plan = FaultPlan(raises={("x",): 1})
        with pytest.raises(FaultInjectedError):
            plan.apply_serial(("x",), 1)
        plan.apply_serial(("x",), 2)  # second attempt passes

    def test_shard_worker_crash_recovers_bit_identical(self, trace):
        """A killed *shard* worker is retried like any cell; the merged
        result stays bit-identical to the unsharded run."""
        from repro.protocols.runner import run_protocol

        clean = run_protocol("SD", trace, 64)
        cells = [("protocol", 64, "SD")]
        # One cell, three ranges: the task list is the three shard
        # members, so index 1 is the middle range's worker.
        plan = FaultPlan(crash={1: 1})
        engine = SweepEngine(trace, jobs=2, shards=3, retry=FAST_RETRY,
                             fault_plan=plan)
        assert engine.run_grid(cells) == [clean]

    def test_shard_worker_hang_recovers_bit_identical(self, trace):
        from interpreted import interpret

        clean = interpret("MAX", trace, 64)
        plan = FaultPlan(hang={0: 1})  # first range hangs once
        engine = SweepEngine(trace, jobs=2, shards=2, timeout=2.0,
                             retry=FAST_RETRY, fault_plan=plan)
        assert engine.run_grid([("protocol", 64, "MAX")]) == [clean]

    def test_shard_crash_with_checkpoint_resumes(self, tmp_path, trace):
        """Crash-until-fallback on a shard cell, with journaling on: the
        sweep completes (serial fallback) and a resume re-runs nothing."""
        from repro.protocols.runner import run_protocol

        ckpt = str(tmp_path)
        clean = run_protocol("OTF", trace, 64)
        plan = FaultPlan(crash={0: 10_000})
        engine = SweepEngine(trace, jobs=2, shards=2, retry=FAST_RETRY,
                             checkpoint_dir=ckpt, fault_plan=plan)
        assert engine.run_grid([("protocol", 64, "OTF")]) == [clean]
        resumed = SweepEngine(trace, jobs=2, shards=2, retry=FAST_RETRY,
                              checkpoint_dir=ckpt)
        ran = []
        pre = resumed.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        assert resumed.run_grid([("protocol", 64, "OTF")]) == [clean]
        assert ran == []


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_result_encoding_round_trips(self):
        bd = DuboisBreakdown(pc=1, cts=2, cfs=3, pts=4, pfs=5, data_refs=60)
        sb = SimpleBreakdown(cold=1, true_sharing=2, false_sharing=3,
                             data_refs=10)
        cmp_ = ClassificationComparison(trace_name="t", block_bytes=64,
                                        ours=bd, eggers=sb, torrellas=sb)
        pr = ProtocolResult(protocol="MIN", trace_name="t", block_bytes=64,
                            num_procs=4, breakdown=bd,
                            counters=Counters(fetches=7, write_throughs=3),
                            replacement_misses=2)
        for obj in (bd, sb, cmp_, pr):
            blob = json.loads(json.dumps(encode_result(obj)))
            assert decode_result(blob) == obj

    def test_killed_sweep_resumes_from_journal(self, tmp_path, trace,
                                               clean_sweep):
        """A sweep killed mid-grid re-runs only the incomplete cells."""
        ckpt = str(tmp_path)
        cells = [("classify", bb, "dubois") for bb in SIZES]
        # Simulate the kill: a first run completes only three cells.
        SweepEngine(trace, checkpoint_dir=ckpt).run_grid(cells[:3])
        engine = SweepEngine(trace, checkpoint_dir=ckpt)
        journal_path = os.path.join(ckpt, f"{engine.trace_key}.jsonl")
        before = open(journal_path, "rb").read()
        assert before.count(b"\n") == 4  # versioned header + 3 records

        ran = []
        pre = engine.precompute
        original = pre.run_cell
        pre.run_cell = lambda cell: (ran.append(cell), original(cell))[1]
        results = engine.run_grid(cells)

        # Journal inspection: the completed prefix is byte-identical and
        # only the two incomplete cells were executed (as one group task)
        # and appended.
        after = open(journal_path, "rb").read()
        assert after.startswith(before)
        assert after.count(b"\n") == len(cells) + 1  # + header
        assert ran == [("group",) + tuple(tuple(c) for c in cells[3:])]
        assert tuple(results) == clean_sweep.breakdowns

    def test_resume_after_cell_failure_skips_journaled_cells(
            self, tmp_path, trace, clean_sweep):
        """CellFailedError mid-grid leaves a usable journal behind."""
        ckpt = str(tmp_path)
        # Two group tasks, (4, 64, 1024) and (16, 256): the second fails.
        plan = FaultPlan(raises={("classify", SIZES[3], "dubois"): 10_000})
        engine = SweepEngine(trace, jobs=2, retry=FAST_RETRY,
                             checkpoint_dir=ckpt, fault_plan=plan)
        with pytest.raises(CellFailedError):
            engine.classify_sweep(SIZES)
        # A healthy engine over the same trace+checkpoint finishes the rest.
        healthy = SweepEngine(trace, checkpoint_dir=ckpt)
        assert healthy.classify_sweep(SIZES) == clean_sweep

    def test_journal_ignores_torn_final_line(self, tmp_path, trace):
        ckpt = str(tmp_path)
        cells = [("classify", bb, "dubois") for bb in SIZES[:2]]
        engine = SweepEngine(trace, checkpoint_dir=ckpt)
        results = engine.run_grid(cells)
        path = os.path.join(ckpt, f"{engine.trace_key}.jsonl")
        with open(path, "ab") as fh:  # torn write from a killed process
            fh.write(b'{"v": 1, "key": "x", "ce')
        journal = CheckpointJournal(ckpt, engine.trace_key)
        completed = journal.load()
        assert completed == {tuple(c): r for c, r in zip(cells, results)}

    def test_journal_keyed_by_trace(self, tmp_path, trace):
        """A different trace key never sees another trace's records."""
        journal = CheckpointJournal(str(tmp_path), "key-a")
        bd = DuboisBreakdown(1, 2, 3, 4, 5, 60)
        journal.record(("classify", 64, "dubois"), bd)
        journal.close()
        assert CheckpointJournal(str(tmp_path), "key-a").load() != {}
        other = CheckpointJournal(str(tmp_path), "key-b")
        assert other.load() == {}

    def test_for_workload_uses_cache_key(self, tmp_path):
        engine = SweepEngine.for_workload(
            "MATMUL24", cache_dir=str(tmp_path / "traces"),
            checkpoint_dir=str(tmp_path / "ckpt"))
        from repro.trace.cache import workload_cache_key
        from repro.workloads.registry import make_workload
        assert engine.trace_key == workload_cache_key(
            make_workload("MATMUL24"))


# ----------------------------------------------------------------------
# invariant guards
# ----------------------------------------------------------------------
class TestInvariantGuards:
    @staticmethod
    def _violating_comparison():
        ours = DuboisBreakdown(pc=1, cts=0, cfs=0, pts=0, pfs=0,
                               data_refs=10)
        eggers = SimpleBreakdown(cold=2, true_sharing=0, false_sharing=0,
                                 data_refs=10)  # totals disagree: 1 vs 2
        return ClassificationComparison(trace_name="t", block_bytes=64,
                                        ours=ours, eggers=eggers,
                                        torrellas=eggers)

    def test_warn_mode_warns(self, trace):
        engine = SweepEngine(trace)
        with pytest.warns(UserWarning, match="invariant violation"):
            engine._guard_cell(("compare", 64, None),
                               self._violating_comparison())

    def test_strict_mode_raises(self, trace):
        engine = SweepEngine(trace, strict_invariants=True)
        with pytest.raises(InvariantViolationError) as exc_info:
            engine._guard_cell(("compare", 64, None),
                               self._violating_comparison())
        assert exc_info.value.violations

    def test_clean_compare_cell_passes(self, trace):
        engine = SweepEngine(trace, strict_invariants=True)
        cells = [("compare", 64, None)]
        (result,) = engine.run_grid(cells)  # must not raise
        assert result.ours.total == result.eggers.total


# ----------------------------------------------------------------------
# options plumbing / job resolution
# ----------------------------------------------------------------------
class TestPlumbing:
    @pytest.mark.parametrize("timeout", [0, -5.0])
    def test_non_positive_timeout_rejected(self, trace, timeout):
        # A stall window of zero or less would declare every worker hung
        # the moment it is assigned a cell.
        with pytest.raises(ConfigError, match="timeout must be > 0"):
            SweepEngine(trace, jobs=2, timeout=timeout)

    @pytest.mark.parametrize("timeout", ["0", "-5"])
    def test_cli_non_positive_timeout_exits_2(self, timeout, capsys):
        from repro.cli import main

        assert main(["simulate", "JACOBI64", "--jobs", "2",
                     "--timeout", timeout]) == EXIT_FAILED
        assert "timeout must be > 0" in capsys.readouterr().err

    def test_resolve_jobs_respects_affinity(self):
        assert _resolve_jobs(0) == len(os.sched_getaffinity(0))
        assert _resolve_jobs(None) == len(os.sched_getaffinity(0))
        assert _resolve_jobs(5) == 5

    def test_execution_options_thread_through_sweep(self, trace, tmp_path,
                                                    clean_sweep):
        from repro.analysis.sweep import sweep_block_sizes

        options = ExecutionOptions(retry=FAST_RETRY, timeout=30.0,
                                   checkpoint_dir=str(tmp_path))
        got = sweep_block_sizes(trace, SIZES, options=options)
        assert got == clean_sweep
        assert os.listdir(str(tmp_path))  # journal was written

    def test_execution_options_thread_through_protocols(self, trace,
                                                        tmp_path):
        from repro.protocols.runner import run_protocols

        options = ExecutionOptions(checkpoint_dir=str(tmp_path))
        got = run_protocols(trace, 64, ("MIN", "OTF"), options=options)
        plain = run_protocols(trace, 64, ("MIN", "OTF"))
        assert got == plain
        # A second run resumes every cell from the journal.
        ckpt = run_protocols(trace, 64, ("MIN", "OTF"), options=options)
        assert ckpt == plain

    def test_cli_resilience_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "MATMUL24", "--timeout", "5", "--retries", "1",
             "--resume", "--strict-invariants"])
        assert args.timeout == 5.0
        assert args.retries == 1
        assert args.resume == ""
        assert args.strict_invariants

    def test_cli_sweep_with_resume(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "ckpt")
        assert main(["sweep", "MATMUL24", "--resume", ckpt,
                     "--retries", "1"]) == 0
        assert "essential%" in capsys.readouterr().out
        assert os.listdir(ckpt)
        # Resumed run: every cell comes from the journal.
        assert main(["sweep", "MATMUL24", "--resume", ckpt]) == 0
        assert "essential%" in capsys.readouterr().out
