"""Chaos soak property: killed-and-resumed sweeps converge bit-identically.

The seeded harness in ``tests/chaos.py`` is itself under test
here, together with the property it exists to enforce: for any seed (and
therefore any schedule of SIGINT/SIGTERM/SIGKILL kills, injected worker
faults and torn journal tails), a sweep driven through kill-and-resume
cycles against one checkpoint directory eventually completes with results
— and a telemetry-manifest stable view — byte-identical to a single
uninterrupted run.

The property runs over the execution paths that shard or retry work
differently: serial, kernel cells in block ranges on workers, and
finite-cache cells in ranges of cache sets.  Grids are kept tiny (MATMUL24 / WATER16, 2-3 cells)
so each soak is seconds, not minutes; the CI chaos-soak job runs the
bigger, longer variant via ``python tests/chaos.py``.
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaos import ACTIONS, ChaosReport, chaos_soak
from repro.errors import ConfigError

CLASSIFY_CELLS = [("classify", 16, "dubois"), ("classify", 64, "dubois"),
                  ("compare", 32, None)]
FINITE_CELLS = [("finite", 16, "c256w4"), ("classify", 32, "dubois")]


def _runner(workload, cells, *, jobs, shards=None):
    """A fork-inheritable ``run_sweep`` for one engine configuration."""

    def run_sweep(checkpoint_dir, fault_plan, telemetry_dir):
        from repro.analysis.engine import SweepEngine

        engine = SweepEngine.for_workload(
            workload, jobs=jobs, shards=shards,
            checkpoint_dir=checkpoint_dir, fault_plan=fault_plan,
            telemetry_dir=telemetry_dir, timeout=5.0)
        return list(engine.run_grid(list(cells)))

    return run_sweep


# ----------------------------------------------------------------------
# the property, per execution path
# ----------------------------------------------------------------------
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_serial_soak_converges_bit_identical(seed):
    workdir = tempfile.mkdtemp(prefix="chaos-serial-")
    try:
        report = chaos_soak(
            _runner("MATMUL24", CLASSIFY_CELLS, jobs=1),
            workdir, seed=seed, kill_cycles=3,
            grid_cells=CLASSIFY_CELLS)
        assert report.ok, report.summary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_sharded_soak_converges_bit_identical(tmp_path):
    report = chaos_soak(
        _runner("WATER16", CLASSIFY_CELLS, jobs=2, shards=2),
        str(tmp_path), seed=3, kill_cycles=3,
        grid_cells=CLASSIFY_CELLS)
    assert report.ok, report.summary()


def test_cache_set_sharded_soak_converges_bit_identical(tmp_path):
    report = chaos_soak(
        _runner("WATER16", FINITE_CELLS, jobs=2, shards=2),
        str(tmp_path), seed=5, kill_cycles=3,
        grid_cells=FINITE_CELLS)
    assert report.ok, report.summary()


def test_torn_tail_schedule_converges(tmp_path):
    """Force the nastiest schedule: every failed cycle tears the journal."""
    report = chaos_soak(
        _runner("MATMUL24", CLASSIFY_CELLS, jobs=1),
        str(tmp_path), seed=11, kill_cycles=3,
        actions=("sigterm",), tear_probability=1.0,
        grid_cells=CLASSIFY_CELLS)
    assert report.ok, report.summary()


def test_worker_fault_schedule_converges(tmp_path):
    """Worker-side faults only (crash/hang/sigterm-parent) under the
    sharded pool: retries and the stall watchdog must absorb all of them."""
    report = chaos_soak(
        _runner("MATMUL24", CLASSIFY_CELLS, jobs=2, shards=2),
        str(tmp_path), seed=7, kill_cycles=2,
        actions=tuple(a for a in ACTIONS if a.startswith("fault:")),
        grid_cells=CLASSIFY_CELLS)
    assert report.ok, report.summary()


# ----------------------------------------------------------------------
# harness plumbing
# ----------------------------------------------------------------------
def test_unknown_action_rejected(tmp_path):
    with pytest.raises(ConfigError):
        chaos_soak(_runner("MATMUL24", CLASSIFY_CELLS, jobs=1),
                   str(tmp_path), actions=("meteor-strike",))


def test_report_summary_and_ok_logic():
    report = ChaosReport(seed=1)
    assert not report.ok  # never converged
    report.converged = True
    report.identical = True
    report.manifest_identical = None  # manifests not compared: still ok
    assert report.ok
    report.manifest_identical = False
    assert not report.ok
    assert "seed=1" in report.summary()


def test_failing_soak_reports_divergence(tmp_path):
    """A sweep whose results depend on resume history must be caught."""
    marker = tmp_path / "ran-once"

    def unstable(checkpoint_dir, fault_plan, telemetry_dir):
        # On-disk state (closures reset at every fork): the baseline and
        # the chaos run see different values, simulating resume-dependent
        # results.
        from repro.classify.breakdown import DuboisBreakdown

        n = 2 if marker.exists() else 1
        marker.write_text("x")
        return [DuboisBreakdown(pc=n, cts=0, cfs=0, pts=0, pfs=0,
                                data_refs=10)]

    report = chaos_soak(unstable, str(tmp_path), seed=0, kill_cycles=0,
                        actions=("sigint",), compare_manifests=False)
    assert report.converged
    assert not report.identical
    assert not report.ok
