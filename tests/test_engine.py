"""Equivalence suite for the sweep engine.

Proves that the columnar engine path (vectorized prefilter, precomputed
block ids, grid fan-out) produces *identical* miss breakdowns and protocol
counters to the plain per-event oracles (each classifier's ``access()``,
each protocol's simulator), for every registered workload, all three
classifiers and all seven protocols, at block sizes {4, 64, 1024}.

The paper-scale large configurations (``PAPER_LARGE_SUITE``) are excluded:
they take tens of minutes to generate.  Every other workload is covered via
a deterministic prefix of its trace so the whole suite stays fast; both
paths see exactly the same events, so equality is exact, not statistical.
"""

import pytest

from interpreted import classify_by_access, compare_by_access, interpret
from repro.analysis.engine import CLASSIFIERS, SharedPrecompute, SweepEngine
from repro.analysis.sweep import sweep_block_sizes
from repro.mem.addresses import BlockMap
from repro.protocols.runner import (
    ALL_PROTOCOLS,
    run_protocol_grid,
    run_protocols,
)
from repro.trace.trace import Trace
from repro.workloads.registry import NAMED_CONFIGS, PAPER_LARGE_SUITE, make_workload

#: Every registered workload except the tens-of-minutes paper-scale runs.
WORKLOAD_NAMES = tuple(n for n in NAMED_CONFIGS if n not in PAPER_LARGE_SUITE)

#: Acceptance block sizes: the paper's extremes plus its headline size.
BLOCK_SIZES = (4, 64, 1024)

#: Deterministic per-workload prefix length keeping the suite fast.
PREFIX = 8000


@pytest.fixture(scope="module")
def traces():
    """``name -> trace``: the first ``PREFIX`` events of each workload."""
    out = {}
    for name in WORKLOAD_NAMES:
        full = make_workload(name).generate()
        out[name] = Trace(full.columns()[:PREFIX], full.num_procs, name=name)
    return out


@pytest.fixture(scope="module")
def precomputes(traces):
    """One shared :class:`SharedPrecompute` per workload (the engine path)."""
    return {name: SharedPrecompute(trace) for name, trace in traces.items()}


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("classifier", sorted(CLASSIFIERS))
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_classifier_equivalence(traces, precomputes, name, classifier,
                                block_bytes):
    expected = classify_by_access(CLASSIFIERS[classifier], traces[name],
                                  BlockMap(block_bytes))
    got = precomputes[name].run_classifier(classifier, block_bytes)
    assert got == expected


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_protocol_equivalence(traces, precomputes, name, block_bytes):
    pre = precomputes[name]
    for protocol in ALL_PROTOCOLS:
        expected = interpret(protocol, traces[name], block_bytes)
        got = pre.run_protocol(protocol, block_bytes)
        assert got == expected, f"{protocol} diverged"


@pytest.mark.parametrize("name", ("MP3D200", "FFT256"))
def test_comparison_equivalence(traces, precomputes, name):
    for block_bytes in BLOCK_SIZES:
        expected = compare_by_access(traces[name], block_bytes)
        got = precomputes[name].run_comparison(block_bytes)
        assert got == expected


def test_classify_sweep_matches_sweep_block_sizes(traces):
    trace = traces["LU32"]
    assert (SweepEngine(trace).classify_sweep(BLOCK_SIZES).breakdowns
            == sweep_block_sizes(trace, BLOCK_SIZES).breakdowns)


def test_fork_pool_matches_serial(traces):
    serial = SweepEngine(traces["MP3D200"], jobs=1)
    forked = SweepEngine(traces["MP3D200"], jobs=2)
    assert (forked.classify_sweep(BLOCK_SIZES).breakdowns
            == serial.classify_sweep(BLOCK_SIZES).breakdowns)
    sizes = (64, 1024)
    assert (forked.protocol_grid(sizes, ("MIN", "OTF", "MAX"))
            == serial.protocol_grid(sizes, ("MIN", "OTF", "MAX")))


def test_run_protocols_jobs_matches_serial(traces):
    trace = traces["WATER16"]
    assert (run_protocols(trace, 64, ("MIN", "OTF"), jobs=2)
            == run_protocols(trace, 64, ("MIN", "OTF")))


def test_run_protocol_grid_shape(traces):
    grid = run_protocol_grid(traces["FFT256"], (4, 64), ("MIN", "MAX"))
    assert set(grid) == {(4, "MIN"), (4, "MAX"), (64, "MIN"), (64, "MAX")}
    for (bb, name), result in grid.items():
        assert result.block_bytes == bb and result.protocol == name


#: Kernel cells (grouped), an extension protocol without a kernel, and a
#: fully associative finite cell (simulated in every mode).
MIXED_GRID = [("classify", 16, "dubois"), ("protocol", 64, "OTF"),
              ("protocol", 64, "WU"), ("finite", 16, "c8"),
              ("compare", 32, None), ("protocol", 1024, "MAX"),
              ("classify", 1024, "eggers")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_mixed_grid_groups_match_interpreted(traces, jobs):
    """Kernel cells run in group tasks next to interpreted cells, and
    every result equals the interpreted engine's."""
    trace = traces["MP3D200"]
    engine = SweepEngine(trace, jobs=jobs, shards=1)
    ran = []
    original = engine.precompute.run_cell
    engine.precompute.run_cell = lambda t: (ran.append(t), original(t))[1]
    got = engine.run_grid(MIXED_GRID)
    assert got == SweepEngine(trace, kernel="interpreted").run_grid(
        MIXED_GRID)
    if jobs == 1:  # forked workers run their tasks out of sight
        kernel = [c for c in MIXED_GRID if c[2] not in ("WU", "c8")]
        assert ran == [("group",) + tuple(kernel), ("protocol", 64, "WU"),
                       ("finite", 16, "c8")]


def test_resume_after_a_completed_group_reruns_nothing(traces, tmp_path):
    """A group is journaled cell by cell when it completes: after a later
    task fails, a resume re-runs only that task, and a resume of the
    finished grid re-runs nothing."""
    from repro.errors import CellFailedError
    from repro.runtime.faults import FaultPlan
    from repro.runtime.retry import RetryPolicy

    trace = traces["MP3D200"]
    ckpt = str(tmp_path)
    wu = ("protocol", 64, "WU")
    failing = SweepEngine(trace, checkpoint_dir=ckpt,
                          retry=RetryPolicy(max_attempts=1),
                          fault_plan=FaultPlan(raises={wu: 99}))
    with pytest.raises(CellFailedError) as exc_info:
        failing.run_grid(MIXED_GRID)
    kernel = [c for c in MIXED_GRID if c[2] not in ("WU", "c8")]
    assert set(exc_info.value.partial) == set(kernel)
    want = SweepEngine(trace, kernel="interpreted").run_grid(MIXED_GRID)
    for rerun in ([wu, ("finite", 16, "c8")], []):
        resumed = SweepEngine(trace, checkpoint_dir=ckpt,
                              trace_key=failing.trace_key)
        ran = []
        original = resumed.precompute.run_cell
        resumed.precompute.run_cell = lambda t: (ran.append(t),
                                                 original(t))[1]
        assert resumed.run_grid(MIXED_GRID) == want
        assert ran == rerun


def test_for_workload_generates_once(tmp_path):
    cache_dir = str(tmp_path / "traces")
    first = SweepEngine.for_workload("FFT256", cache_dir=cache_dir)
    second = SweepEngine.for_workload("FFT256", cache_dir=cache_dir)
    assert first.trace == second.trace


def test_grid_hashes_the_trace_only_for_a_reader(traces, tmp_path):
    """The trace key hashes the whole trace: a grid that records no
    telemetry and journals nothing never computes it."""
    for jobs in (1, 2):
        engine = SweepEngine(traces["MP3D200"], jobs=jobs)
        engine.classify_sweep(BLOCK_SIZES)
        assert engine._trace_key is None
    recorded = SweepEngine(traces["MP3D200"],
                           telemetry_dir=str(tmp_path / "tel"))
    recorded.classify_sweep(BLOCK_SIZES)
    assert recorded._trace_key is not None
