"""Equivalence suite for the sweep engine.

Proves that the columnar engine path (vectorized prefilter, precomputed
block ids, grid fan-out) produces *identical* miss breakdowns and protocol
counters to the classic tuple-iteration path, for every registered workload,
all three classifiers and all seven protocols, at block sizes {4, 64, 1024}.

The paper-scale large configurations (``PAPER_LARGE_SUITE``) are excluded:
they take tens of minutes to generate.  Every other workload is covered via
a deterministic prefix of its trace so the whole suite stays fast; both
paths see exactly the same events, so equality is exact, not statistical.
"""

import pytest

from interpreted import interpret
from repro.analysis.engine import CLASSIFIERS, SharedPrecompute, SweepEngine
from repro.analysis.sweep import sweep_block_sizes
from repro.classify.compare import compare_classifications
from repro.mem.addresses import BlockMap
from repro.protocols.runner import (
    ALL_PROTOCOLS,
    run_protocol_grid,
    run_protocols,
)
from repro.trace.columnar import TraceColumns
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
    """``name -> (tuple_trace, columnar_trace)`` over identical events.

    The tuple trace never grows columns during these tests (the streaming
    path); the columnar trace starts from arrays (the engine path).
    """
    out = {}
    for name in WORKLOAD_NAMES:
        full = make_workload(name).generate()
        events = full.events[:PREFIX]
        tuple_trace = Trace(events, full.num_procs, name=name, copy=False)
        col_trace = Trace.from_columns(TraceColumns.from_events(events),
                                       full.num_procs, name=name)
        out[name] = (tuple_trace, col_trace)
    return out


@pytest.fixture(scope="module")
def precomputes(traces):
    """One shared :class:`SharedPrecompute` per workload (the engine path)."""
    return {name: SharedPrecompute(col)
            for name, (_, col) in traces.items()}


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("classifier", sorted(CLASSIFIERS))
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_classifier_equivalence(traces, precomputes, name, classifier,
                                block_bytes):
    tuple_trace, _ = traces[name]
    cls = CLASSIFIERS[classifier]
    expected = cls.classify_trace(tuple_trace, BlockMap(block_bytes))
    got = precomputes[name].run_classifier(classifier, block_bytes)
    assert got == expected


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_protocol_equivalence(traces, precomputes, name, block_bytes):
    tuple_trace, _ = traces[name]
    pre = precomputes[name]
    for protocol in ALL_PROTOCOLS:
        expected = interpret(protocol, tuple_trace, block_bytes)
        got = pre.run_protocol(protocol, block_bytes)
        assert got == expected, f"{protocol} diverged"


@pytest.mark.parametrize("name", ("MP3D200", "FFT256"))
def test_comparison_equivalence(traces, precomputes, name):
    tuple_trace, _ = traces[name]
    for block_bytes in BLOCK_SIZES:
        expected = compare_classifications(tuple_trace, block_bytes)
        got = precomputes[name].run_comparison(block_bytes)
        assert got == expected


def test_classify_sweep_matches_sweep_block_sizes(traces):
    tuple_trace, col_trace = traces["LU32"]
    engine = SweepEngine(col_trace)
    assert (engine.classify_sweep(BLOCK_SIZES).breakdowns
            == sweep_block_sizes(tuple_trace, BLOCK_SIZES).breakdowns)


def test_fork_pool_matches_serial(traces):
    _, col_trace = traces["MP3D200"]
    serial = SweepEngine(col_trace, jobs=1)
    forked = SweepEngine(col_trace, jobs=2)
    assert (forked.classify_sweep(BLOCK_SIZES).breakdowns
            == serial.classify_sweep(BLOCK_SIZES).breakdowns)
    sizes = (64, 1024)
    assert (forked.protocol_grid(sizes, ("MIN", "OTF", "MAX"))
            == serial.protocol_grid(sizes, ("MIN", "OTF", "MAX")))


def test_run_protocols_jobs_matches_serial(traces):
    _, col_trace = traces["WATER16"]
    assert (run_protocols(col_trace, 64, ("MIN", "OTF"), jobs=2)
            == run_protocols(col_trace, 64, ("MIN", "OTF")))


def test_run_protocol_grid_shape(traces):
    _, col_trace = traces["FFT256"]
    grid = run_protocol_grid(col_trace, (4, 64), ("MIN", "MAX"))
    assert set(grid) == {(4, "MIN"), (4, "MAX"), (64, "MIN"), (64, "MAX")}
    for (bb, name), result in grid.items():
        assert result.block_bytes == bb and result.protocol == name


def test_for_workload_generates_once(tmp_path):
    cache_dir = str(tmp_path / "traces")
    first = SweepEngine.for_workload("FFT256", cache_dir=cache_dir)
    second = SweepEngine.for_workload("FFT256", cache_dir=cache_dir)
    assert first.trace == second.trace
    assert second.trace.has_columns  # reloaded straight from arrays
