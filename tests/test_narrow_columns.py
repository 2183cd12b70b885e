"""The narrow-column contract of a trace's in-memory columns.

Every trace holds ``op`` as int8, ``proc`` as int8 (int16 past 128
processors) and ``addr`` as int32 (int64 once an address reaches
2**31), however it was built.  The values, and every digest taken over
them, are those of the int64 columns the traces once held.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from reference_machine import ReferenceMachine, expand_runs
from repro.analysis.engine import SweepEngine
from repro.execution import ops
from repro.execution.scheduler import Machine
from repro.trace import Trace
from repro.trace.cache import WorkloadTraceCache
from repro.trace.columnar import TraceColumns
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.interleave import reinterleave
from repro.trace.io import (
    _array_checksum,
    loads_text,
    dumps_text,
    load_npz,
    save_npz,
    values_checksum,
)
from repro.workloads.registry import make_workload

NARROW = (np.int8, np.int8, np.int32)


def dtypes(trace):
    cols = trace.columns()
    return (cols.proc.dtype, cols.op.dtype, cols.addr.dtype)


@pytest.fixture(scope="module")
def mp3d():
    return make_workload("MP3D200").generate()


class TestEveryTraceIsNarrow:
    def test_generated(self, mp3d):
        assert dtypes(mp3d) == NARROW

    def test_cache_loaded(self, tmp_path):
        cache = WorkloadTraceCache(str(tmp_path))
        generated = cache.get("WATER16")
        loaded = WorkloadTraceCache(str(tmp_path)).get("WATER16")
        assert dtypes(loaded) == NARROW and loaded == generated

    def test_from_events(self):
        trace = Trace([(0, STORE, 5), (1, LOAD, 5), (1, ACQUIRE, 9),
                       (1, RELEASE, 9)], 2)
        assert dtypes(trace) == NARROW

    def test_read_from_text(self, mp3d):
        head = mp3d.head(500)
        loaded = loads_text(dumps_text(head))
        assert dtypes(loaded) == NARROW and loaded == head

    def test_interleaved(self, mp3d):
        mixed = reinterleave(mp3d.head(500), seed=3)
        assert dtypes(mixed) == NARROW

    def test_slices_stay_views(self, mp3d):
        head = mp3d.head(100)
        assert np.shares_memory(head.columns().addr, mp3d.columns().addr)
        assert dtypes(head) == NARROW


class TestKeysStayOnValues:
    def test_trace_key_is_pinned(self, mp3d):
        assert SweepEngine(mp3d).trace_key == "MP3D200-248a9d7b7c702cdd"

    def test_values_checksum_is_the_int64_array_checksum(self, mp3d):
        cols = mp3d.columns()
        assert values_checksum(cols) == _array_checksum(
            *(column.astype(np.int64)
              for column in (cols.proc, cols.op, cols.addr)))


def _remapped(trace, *, proc=None, addr_offset=0, num_procs=None):
    """``trace`` with its processors renumbered and addresses shifted."""
    cols = trace.columns()
    procs = cols.proc if proc is None else proc(cols.proc.astype(np.int64))
    return Trace(TraceColumns(procs, cols.op,
                              cols.addr.astype(np.int64) + addr_offset),
                 num_procs or trace.num_procs, name=trace.name)


GRID = ([("protocol", bb, name) for bb in (16, 64)
         for name in ("OTF", "MIN", "WBWI", "RD", "SD", "SRD", "MAX")]
        + [("classify", 32, "dubois"), ("compare", 16, None),
           ("finite", 64, "c16w4")])


@pytest.fixture(scope="module")
def wide_traces():
    base = make_workload("WATER16").generate().head(4000)
    return {
        "addr": _remapped(base, addr_offset=(1 << 33) + 12),
        # 16 processors spread over ids 0..199: several exceed 127.
        "proc": _remapped(base, proc=lambda p: p * 53 % 200,
                          num_procs=200),
    }


class TestWidePaths:
    def test_wide_columns_take_wide_dtypes(self, wide_traces):
        assert dtypes(wide_traces["addr"]) == (np.int8, np.int8, np.int64)
        assert dtypes(wide_traces["proc"]) == (np.int16, np.int8, np.int32)

    @pytest.mark.parametrize("which", ["addr", "proc"])
    def test_kernel_cells_equal_the_interpreted_oracle(self, wide_traces,
                                                       which):
        trace = wide_traces[which]
        vec = SweepEngine(trace, kernel="vectorized").run_grid(GRID)
        ref = SweepEngine(trace, kernel="interpreted").run_grid(GRID)
        assert vec == ref

    @pytest.mark.parametrize("which", ["addr", "proc"])
    def test_npz_round_trip(self, wide_traces, which, tmp_path):
        trace = wide_traces[which]
        path = str(tmp_path / "w.npz")
        save_npz(trace, path)
        loaded = load_npz(path)
        assert loaded == trace and dtypes(loaded) == dtypes(trace)


class TestMachineBuffers:
    @staticmethod
    def _threads(count, addrs):
        def body(p):
            for i, addr in enumerate(addrs):
                yield ops.store(addr + p) if i % 3 else ops.load(addr + p)
            yield (ops.RUN, LOAD, np.arange(len(addrs)) + addrs[-1])
        return [body(p) for p in range(count)]

    def _run(self, count, addrs):
        got = Machine(count).run(self._threads(count, addrs))
        want = ReferenceMachine(count).run(
            [expand_runs(t) for t in self._threads(count, addrs)])
        assert got == want and got.meta == want.meta
        return got

    def test_address_past_int32_widens_the_address_buffer(self):
        # Small addresses first, so the buffer widens mid-run.
        trace = self._run(3, [4, 8, 12] * 4000 + [(1 << 31) + 5, 7])
        assert dtypes(trace) == (np.int8, np.int8, np.int64)

    def test_more_than_128_threads_take_int16_processors(self):
        trace = self._run(200, [16, 20, 24])
        assert dtypes(trace) == (np.int16, np.int8, np.int32)
        assert trace.columns().proc.max() == 199


def test_generation_peak_stays_under_16_bytes_an_event():
    """The narrow buffers are what a generation holds (int64 columns
    peaked near 30 bytes an event)."""
    workload = make_workload("MP3D1000")
    gc.collect()
    tracemalloc.start()
    try:
        trace = workload.generate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(trace) < 16, peak / len(trace)
