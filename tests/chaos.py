"""Seeded chaos soak: kill-and-resume loops that must converge bit-identically.

The robustness layer makes three promises: an interrupted sweep exits
resumable, a resumed sweep re-runs only what is missing, and however many
times a sweep is killed mid-flight, the final merged results are
**bit-identical** to one uninterrupted run.  This harness proves all three
at once by brute force:

1. run one *baseline* sweep, uninterrupted, in a fresh child process;
2. run up to ``kill_cycles`` *chaos* cycles against a shared checkpoint
   directory — each cycle forks a child that runs the same sweep under
   graceful shutdown, and a seeded RNG picks how it dies: SIGINT or
   SIGTERM after a random delay, outright SIGKILL, or an injected
   :class:`~repro.runtime.faults.FaultPlan` fault (worker crash, hang,
   OOM, or the worker SIGTERM-ing its own supervisor); between cycles the
   journal tail is occasionally torn mid-line to simulate a kill during a
   checkpoint write;
3. when a cycle survives to completion (or the cycle budget is spent, at
   which point one clean cycle runs), compare its results — and
   optionally its telemetry manifest's stable view — byte-for-byte
   against the baseline.

Every random choice flows from one ``seed``, so a failing soak replays
exactly.  The harness is engine-agnostic: the caller supplies
``run_sweep(checkpoint_dir, fault_plan, telemetry_dir) -> list`` which
builds whatever engine configuration is under test (serial, sharded,
memory-budgeted...) and returns the grid results in a stable order.

The module also holds the on-disk damage helpers the recovery and cache
suites share (:func:`tear_jsonl_tail`, :func:`corrupt_file`).  Run the
soak from the repository root with::

    PYTHONPATH=src python tests/chaos.py --workload MATMUL24 --seed 4
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import (
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    EXIT_RESOURCE_EXHAUSTED,
    ConfigError,
    ReproError,
    SweepInterrupted,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.signals import graceful_shutdown

#: Everything a cycle can do to the sweep.  ``complete`` runs a clean
#: cycle (useful to weight convergence into long soaks); the ``fault:*``
#: actions inject one worker-side fault on a random cell's first attempt
#: so the supervisor's retry completes the cell.
ACTIONS: Tuple[str, ...] = (
    "sigint", "sigterm", "sigkill",
    "fault:crash", "fault:hang", "fault:oom", "fault:sigterm-parent",
)

#: Actions that need the caller's engine to have a (short) per-cell
#: timeout configured: a hung worker is only ever reaped by the stall
#: watchdog.
TIMEOUT_ACTIONS = frozenset({"fault:hang"})


@dataclass(frozen=True)
class CycleOutcome:
    """What one chaos cycle did and how the sweep child died (or didn't)."""

    cycle: int
    action: str
    exitcode: Optional[int]  # None: child had to be force-killed as stuck
    completed: bool          # child delivered final results
    journal_cells: int       # distinct full cells journaled after the cycle
    torn: bool               # journal tail torn before the *next* cycle
    duration_s: float


@dataclass
class ChaosReport:
    """Result of one :func:`chaos_soak` run."""

    seed: int
    cycles: List[CycleOutcome] = field(default_factory=list)
    converged: bool = False           # some cycle delivered final results
    identical: bool = False           # ...bit-identical to the baseline
    manifest_identical: Optional[bool] = None  # None: manifests not compared
    baseline_sha256: str = ""
    final_sha256: str = ""

    @property
    def ok(self) -> bool:
        """The property under test: converged, bit-identical, manifests too."""
        return (self.converged and self.identical
                and self.manifest_identical is not False)

    def summary(self) -> str:
        lines = [f"chaos soak seed={self.seed}: {len(self.cycles)} cycle(s), "
                 f"converged={self.converged} identical={self.identical} "
                 f"manifest_identical={self.manifest_identical}"]
        for c in self.cycles:
            lines.append(
                f"  cycle {c.cycle}: {c.action:<22} exit={c.exitcode!r:>5} "
                f"completed={c.completed} journal_cells={c.journal_cells}"
                f"{' torn' if c.torn else ''} ({c.duration_s:.2f}s)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# child-side plumbing
# ----------------------------------------------------------------------
def _encode_results(results: Sequence) -> bytes:
    """Canonical bytes of a result list (the bit-identity anchor)."""
    from repro.runtime.checkpoint import encode_result

    return json.dumps([encode_result(r) for r in results],
                      sort_keys=True, separators=(",", ":")).encode()


def _child_main(conn, run_sweep, checkpoint_dir, plan, telemetry_dir) -> None:
    """Run one sweep attempt in a forked child, reporting via ``conn``.

    Exit codes mirror the CLI contract exactly (that contract is part of
    what the soak verifies): 0 with results on the pipe, 75 when the
    sweep was interrupted gracefully, 3 on resource exhaustion, 2 on any
    other error.
    """
    try:
        with graceful_shutdown():
            try:
                results = run_sweep(checkpoint_dir, plan, telemetry_dir)
            except SweepInterrupted:
                os._exit(EXIT_INTERRUPTED)
            except KeyboardInterrupt:
                os._exit(EXIT_INTERRUPTED)
            except MemoryError:
                os._exit(EXIT_RESOURCE_EXHAUSTED)
            except ReproError as exc:
                if getattr(exc, "kind", None) in ("memory", "disk"):
                    os._exit(EXIT_RESOURCE_EXHAUSTED)
                traceback.print_exc()
                os._exit(EXIT_FAILED)
            conn.send_bytes(_encode_results(results))
            conn.close()
            os._exit(0)
    except BaseException:  # pragma: no cover - diagnostics only
        traceback.print_exc()
        os._exit(EXIT_FAILED)


def journal_cell_count(checkpoint_dir: str) -> int:
    """Distinct *full* (non-shard) cells across the journals in a dir.

    Reads the raw JSONL rather than :class:`CheckpointJournal` so the
    count never mutates the journal (no tail recovery, no GC) — the soak
    observes, the sweep under test repairs.
    """
    cells = set()
    try:
        names = os.listdir(checkpoint_dir)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(os.path.join(checkpoint_dir, name),
                      encoding="utf-8") as fh:
                for line in fh:
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    cell = record.get("cell") if isinstance(record, dict) \
                        else None
                    if not isinstance(cell, list) or not cell:
                        continue
                    if str(cell[0]).endswith("-shard"):
                        continue
                    cells.add(json.dumps(cell))
        except OSError:
            continue
    return len(cells)


def _journal_paths(checkpoint_dir: str) -> List[str]:
    try:
        return sorted(os.path.join(checkpoint_dir, n)
                      for n in os.listdir(checkpoint_dir)
                      if n.endswith(".jsonl"))
    except OSError:
        return []


def _manifest_sha(telemetry_dir: Optional[str]) -> Optional[str]:
    """Stable-view digest of the single run under a telemetry dir."""
    if telemetry_dir is None:
        return None
    from repro.obs.manifest import (
        find_runs,
        load_manifest,
        manifest_stable_bytes,
    )

    runs = find_runs(telemetry_dir)
    if len(runs) != 1:
        return None
    return hashlib.sha256(
        manifest_stable_bytes(load_manifest(runs[0]))).hexdigest()


# ----------------------------------------------------------------------
# the soak loop
# ----------------------------------------------------------------------
def chaos_soak(run_sweep: Callable[[str, Optional[FaultPlan], Optional[str]],
                                   Sequence],
               workdir: str, *,
               seed: int = 0,
               kill_cycles: int = 5,
               kill_delay: Tuple[float, float] = (0.05, 0.6),
               actions: Sequence[str] = ACTIONS,
               tear_probability: float = 0.25,
               cycle_timeout: float = 120.0,
               compare_manifests: bool = True,
               grid_cells: int = 8) -> ChaosReport:
    """Soak one sweep configuration under seeded kills until convergence.

    ``run_sweep(checkpoint_dir, fault_plan, telemetry_dir)`` must run the
    full sweep with checkpointing rooted at ``checkpoint_dir`` (wiring
    ``fault_plan`` and ``telemetry_dir`` into the engine when not None)
    and return the grid results as a list in deterministic order.

    ``grid_cells`` tells the fault scheduler how many grid cells exist so
    injected faults land on a random real cell index.  Returns a
    :class:`ChaosReport`; the soak itself never raises on divergence —
    assert on ``report.ok`` (and print ``report.summary()`` on failure).
    """
    for action in actions:
        if action not in ACTIONS and action != "complete":
            raise ConfigError(f"unknown chaos action {action!r}; "
                              f"known: {sorted(ACTIONS) + ['complete']}")
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    baseline_ckpt = os.path.join(workdir, "baseline-ckpt")
    chaos_ckpt = os.path.join(workdir, "chaos-ckpt")
    baseline_tel = (os.path.join(workdir, "baseline-telemetry")
                    if compare_manifests else None)
    final_tel = (os.path.join(workdir, "final-telemetry")
                 if compare_manifests else None)

    report = ChaosReport(seed=seed)

    # Baseline: one uninterrupted run in its own child (so its signal
    # handlers, fork pool and telemetry never leak into the soak's
    # process) against a private checkpoint dir.
    exitcode, payload = _run_cycle(run_sweep, baseline_ckpt, None,
                                   baseline_tel, action=None, delay=None,
                                   cycle_timeout=cycle_timeout)
    if exitcode != 0 or payload is None:
        raise ReproError(
            f"chaos soak baseline run failed (exit {exitcode!r}) -- "
            "the sweep must pass uninterrupted before it is worth killing")
    report.baseline_sha256 = hashlib.sha256(payload).hexdigest()
    baseline_manifest = _manifest_sha(baseline_tel)

    final_payload: Optional[bytes] = None
    for cycle in range(kill_cycles + 1):
        last = cycle == kill_cycles
        action = "complete" if last else rng.choice(list(actions))
        plan = None
        delay = None
        if action.startswith("fault:"):
            plan = _plan_for(action, rng.randrange(max(1, grid_cells)))
        elif action in ("sigint", "sigterm", "sigkill"):
            delay = rng.uniform(*kill_delay)
        t0 = time.monotonic()
        exitcode, payload = _run_cycle(
            run_sweep, chaos_ckpt, plan,
            final_tel if last else None,
            action=None if action == "complete" else action,
            delay=delay, cycle_timeout=cycle_timeout)
        completed = payload is not None and exitcode == 0
        torn = False
        if not completed and rng.random() < tear_probability:
            torn = any(tear_jsonl_tail(p)
                       for p in _journal_paths(chaos_ckpt))
        report.cycles.append(CycleOutcome(
            cycle=cycle, action=action, exitcode=exitcode,
            completed=completed,
            journal_cells=journal_cell_count(chaos_ckpt), torn=torn,
            duration_s=time.monotonic() - t0))
        if completed:
            final_payload = payload
            # The graded comparison wants the *final* run's manifest; a
            # convergence before the last cycle ran without telemetry,
            # so replay one clean cycle with it.
            if not last and final_tel is not None:
                exitcode, payload = _run_cycle(
                    run_sweep, chaos_ckpt, None, final_tel, action=None,
                    delay=None, cycle_timeout=cycle_timeout)
                if exitcode == 0 and payload is not None:
                    final_payload = payload
            break

    if final_payload is not None:
        report.converged = True
        report.final_sha256 = hashlib.sha256(final_payload).hexdigest()
        report.identical = report.final_sha256 == report.baseline_sha256
        if compare_manifests:
            final_manifest = _manifest_sha(final_tel)
            if baseline_manifest is not None and final_manifest is not None:
                report.manifest_identical = \
                    final_manifest == baseline_manifest
    return report


def _plan_for(action: str, cell_index: int) -> FaultPlan:
    """A first-attempt-only fault plan for one random grid cell."""
    fault = action[len("fault:"):]
    if fault == "crash":
        return FaultPlan(crash={cell_index: 1})
    if fault == "hang":
        return FaultPlan(hang={cell_index: 1})
    if fault == "oom":
        return FaultPlan(exhaust_memory={cell_index: 1})
    if fault == "sigterm-parent":
        return FaultPlan(sigterm_parent={cell_index: 1})
    raise ConfigError(f"unknown fault action {action!r}")


def _run_cycle(run_sweep, checkpoint_dir, plan, telemetry_dir, *,
               action: Optional[str], delay: Optional[float],
               cycle_timeout: float) -> Tuple[Optional[int],
                                              Optional[bytes]]:
    """Fork one sweep child; optionally signal it after ``delay``.

    Returns ``(exitcode, payload)``; ``exitcode`` is None when the child
    wedged past ``cycle_timeout`` and had to be force-killed, ``payload``
    is the encoded result bytes when the child completed.
    """
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main,
                       args=(child_conn, run_sweep, checkpoint_dir, plan,
                             telemetry_dir))
    proc.start()
    child_conn.close()
    try:
        if action in ("sigint", "sigterm", "sigkill"):
            # Let the sweep get going, then kill it.  If it finishes
            # first, the payload below simply records a completion.
            deadline = time.monotonic() + (delay or 0.0)
            while time.monotonic() < deadline and proc.is_alive():
                time.sleep(0.005)
            if proc.is_alive():
                signum = {"sigint": signal.SIGINT,
                          "sigterm": signal.SIGTERM,
                          "sigkill": signal.SIGKILL}[action]
                os.kill(proc.pid, signum)
        proc.join(cycle_timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(10.0)
            return None, None
        payload = None
        try:
            if parent_conn.poll(0):
                payload = parent_conn.recv_bytes()
        except (EOFError, OSError):
            payload = None
        return proc.exitcode, payload
    finally:
        parent_conn.close()
        if proc.is_alive():  # pragma: no cover - defensive
            proc.kill()
        proc.join(10.0)


def tear_jsonl_tail(path: str, *, cut: int = 17) -> bool:
    """Simulate a kill mid-journal-write: leave a torn final JSONL line.

    Rewinds the file past its final newline by ``cut`` bytes, producing
    an unterminated fragment exactly like an interrupted ``write()``.
    The journal's torn-tail recovery must truncate it away on the next
    open.  Returns False (no-op) when the file is too small to tear.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size <= cut + 1:
        return False
    with open(path, "r+b") as f:
        f.truncate(size - cut)
    return True


def corrupt_file(path: str, *, mode: str = "truncate",
                 offset: int = 64, length: int = 64) -> None:
    """Deterministically corrupt an on-disk cache entry.

    ``mode="truncate"`` cuts the file to half its size (a partial write /
    killed process); ``mode="garble"`` overwrites ``length`` bytes at
    ``offset`` with a fixed pattern (silent media corruption) without
    changing the size.
    """
    size = os.path.getsize(path)
    if mode == "truncate":
        with open(path, "r+b") as f:
            f.truncate(max(1, size // 2))
    elif mode == "garble":
        with open(path, "r+b") as f:
            f.seek(min(offset, max(0, size - 1)))
            f.write(b"\xde\xad\xbe\xef" * (length // 4 + 1))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Tiny CLI wrapper used by the CI chaos-soak job.

    Runs the soak over a named workload with a small grid on every
    supported execution path; exits non-zero if any path fails to
    converge bit-identically.
    """
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        prog="python tests/chaos.py",
        description="seeded kill-and-resume chaos soak")
    parser.add_argument("--workload", default="JACOBI64")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kill-cycles", type=int, default=4)
    parser.add_argument("--paths", default="serial,sharded",
                        help="comma list: serial,sharded,finite")
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)

    from repro.analysis.engine import SweepEngine

    def make_runner(jobs, shards, cells_of):
        def run_sweep(checkpoint_dir, fault_plan, telemetry_dir):
            engine = SweepEngine.for_workload(
                args.workload, jobs=jobs, shards=shards,
                checkpoint_dir=checkpoint_dir, fault_plan=fault_plan,
                telemetry_dir=telemetry_dir, timeout=5.0)
            return list(engine.run_grid(cells_of()))
        return run_sweep

    classify_cells = lambda: [("classify", bb, "dubois")
                              for bb in (16, 64, 256)] + \
                            [("compare", 32, None)]
    finite_cells = lambda: [("finite", 16, "c256w4"),
                            ("classify", 32, "dubois")]
    paths = {
        "serial": (make_runner(1, None, classify_cells), 4),
        "sharded": (make_runner(2, 2, classify_cells), 4),
        "finite": (make_runner(2, 2, finite_cells), 2),
    }
    failed = False
    base = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    for name in args.paths.split(","):
        name = name.strip()
        if name not in paths:
            parser.error(f"unknown path {name!r}")
        runner, n_cells = paths[name]
        report = chaos_soak(
            runner, os.path.join(base, name), seed=args.seed,
            kill_cycles=args.kill_cycles, grid_cells=n_cells)
        print(f"[chaos:{name}]")
        print(report.summary())
        if not report.ok:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
