"""Unit tests for trace serialization (text and npz)."""

import hashlib
import json
import os
import tempfile

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.engine import SweepEngine
from repro.errors import TraceError, TraceFormatError
from repro.trace import Trace, TraceBuilder
from repro.trace.columnar import COLUMN_FLOORS, TraceColumns
from repro.trace.events import OPS
from repro.trace.io import (
    NPZ_FORMAT,
    _array_checksum,
    cached,
    dumps_text,
    load_npz,
    load_text,
    loads_text,
    save_npz,
    save_text,
)


@pytest.fixture
def trace():
    return (TraceBuilder(3)
            .store(0, 0x10).load(1, 0x10).acquire(2, 0x100)
            .release(2, 0x100).load(2, 0x11)
            .build("roundtrip", meta={"seed": 7}))


class TestTextFormat:
    def test_roundtrip(self, trace):
        assert loads_text(dumps_text(trace)) == trace

    def test_preserves_name(self, trace):
        assert loads_text(dumps_text(trace)).name == "roundtrip"

    def test_file_roundtrip(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        save_text(trace, path)
        assert load_text(path) == trace

    def test_comments_and_blank_lines_ignored(self):
        text = ("#repro-trace-v1\nnum_procs 2\n\n"
                "# a comment\n0 LOAD 0x4  # trailing\n1 ST 8\n")
        t = loads_text(text)
        assert len(t) == 2
        assert t.events[1] == (1, 1, 8)

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("num_procs 2\n0 LOAD 0\n")

    def test_missing_num_procs_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v1\n0 LOAD 0\n")

    def test_bad_line_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v1\nnum_procs 1\n0 LOAD\n")

    def test_bad_opcode_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v1\nnum_procs 1\n0 JUMP 0\n")

    def test_decimal_and_hex_addresses(self):
        t = loads_text("#repro-trace-v1\nnum_procs 1\n0 LOAD 10\n0 LOAD 0x10\n")
        assert [a for _, _, a in t.events] == [10, 16]


class TestTextEdgeCases:
    def test_empty_trace_roundtrip(self):
        empty = Trace([], 4, name="empty")
        loaded = loads_text(dumps_text(empty))
        assert len(loaded) == 0
        assert loaded.num_procs == 4
        assert loaded.name == "empty"

    def test_truncated_header_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace\nnum_procs 1\n0 LOAD 0\n")

    def test_wrong_header_version_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v2\nnum_procs 1\n0 LOAD 0\n")

    def test_non_integer_num_procs_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v1\nnum_procs two\n0 LOAD 0\n")

    def test_non_integer_proc_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v1\nnum_procs 1\nx LOAD 0\n")

    def test_non_integer_addr_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v1\nnum_procs 1\n0 LOAD zz\n")

    def test_extra_fields_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_text("#repro-trace-v1\nnum_procs 1\n0 LOAD 0 0\n")

    def test_addr_outside_int64_rejected(self):
        with pytest.raises(TraceError):
            loads_text("#repro-trace-v1\nnum_procs 1\n"
                       "0 LOAD 0x8000000000000000\n")


class TestNpzFormat:
    def test_roundtrip(self, trace, tmp_path):
        path = str(tmp_path / "t.npz")
        save_npz(trace, path)
        loaded = load_npz(path)
        assert loaded == trace
        assert loaded.name == trace.name
        assert loaded.meta["seed"] == 7

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip")
        with pytest.raises(TraceFormatError):
            load_npz(str(path))

    def test_unjsonable_meta_degraded_not_lost(self, tmp_path):
        t = TraceBuilder(1).load(0, 0).build("m", meta={"obj": object()})
        path = str(tmp_path / "m.npz")
        save_npz(t, path)
        loaded = load_npz(path)
        assert "obj" in loaded.meta  # repr'd, not dropped

    def test_empty_trace_roundtrip(self, tmp_path):
        empty = Trace([], 4, name="empty", meta={"seed": 0})
        path = str(tmp_path / "empty.npz")
        save_npz(empty, path)
        loaded = load_npz(path)
        assert len(loaded) == 0
        assert loaded.num_procs == 4
        assert loaded.name == "empty"
        assert loaded.meta == {"seed": 0}

    def test_nested_meta_preserved(self, tmp_path):
        t = (TraceBuilder(1).load(0, 0)
             .build("meta", meta={"config": {"rows": 32, "procs": [0, 1]},
                                  "seed": 42}))
        path = str(tmp_path / "meta.npz")
        save_npz(t, path)
        loaded = load_npz(path)
        assert loaded.meta["config"] == {"rows": 32, "procs": [0, 1]}
        assert loaded.meta["seed"] == 42

    def test_missing_array_rejected(self, tmp_path):
        path = str(tmp_path / "partial.npz")
        np.savez(path, proc=np.zeros(1, dtype=np.int64),
                 op=np.zeros(1, dtype=np.int64))
        with pytest.raises(TraceFormatError):
            load_npz(path)

    def test_unequal_array_lengths_rejected(self, tmp_path):
        path = str(tmp_path / "ragged.npz")
        np.savez(path, proc=np.zeros(2, dtype=np.int64),
                 op=np.zeros(2, dtype=np.int64),
                 addr=np.zeros(3, dtype=np.int64),
                 header=np.array('{"name": "", "num_procs": 1, "meta": {}}'))
        with pytest.raises(TraceFormatError):
            load_npz(path)

    def test_out_of_range_proc_rejected(self, tmp_path):
        path = str(tmp_path / "badproc.npz")
        np.savez(path, proc=np.array([5], dtype=np.int64),
                 op=np.zeros(1, dtype=np.int64),
                 addr=np.zeros(1, dtype=np.int64),
                 header=np.array('{"name": "", "num_procs": 2, "meta": {}}'))
        with pytest.raises(TraceFormatError):
            load_npz(path)

    def test_loaded_trace_is_columnar(self, trace, tmp_path):
        path = str(tmp_path / "cols.npz")
        save_npz(trace, path)
        loaded = load_npz(path)
        assert loaded.columns() == trace.columns()
        assert loaded.events == trace.events


def _stored(path):
    """The arrays and header of an ``.npz`` trace file, as stored."""
    with np.load(path, allow_pickle=False) as data:
        return ({key: data[key] for key in ("proc", "op", "addr")},
                json.loads(str(data["header"])))


def _narrowest_columns(columns):
    """Each (non-negative) column is in the narrowest signed dtype, no
    narrower than its floor, that holds its maximum."""
    def narrowest(column, floor):
        top = int(column.max()) if len(column) else 0
        return np.promote_types(np.min_scalar_type(-1 - top), floor)

    return all(column.dtype == narrowest(column, COLUMN_FLOORS[name])
               for name, column in (("proc", columns.proc),
                                    ("op", columns.op),
                                    ("addr", columns.addr)))


class TestNpzFormatV2:
    """Format 2: narrow, uncompressed columns, adopted on load as the
    narrowest signed columns that hold them."""

    def test_small_trace_stores_narrow_dtypes(self, trace, tmp_path):
        path = str(tmp_path / "t.npz")
        save_npz(trace, path)
        arrays, header = _stored(path)
        assert [arrays[k].dtype for k in ("proc", "op", "addr")] == [
            np.uint8, np.uint8, np.uint16]
        assert header["format"] == NPZ_FORMAT == 2
        assert header["checksum"] == _array_checksum(
            arrays["proc"], arrays["op"], arrays["addr"])

    def test_entry_is_stored_uncompressed(self, trace, tmp_path):
        import zipfile

        path = str(tmp_path / "t.npz")
        save_npz(trace, path)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {
                zipfile.ZIP_STORED}

    @pytest.mark.parametrize("proc, addr, dtypes", [
        ([0, 1], [0, (1 << 32) - 1], (np.uint8, np.uint32)),
        ([0, 1], [5, 1 << 32], (np.uint8, np.uint64)),
        ([0, 1], [3, (1 << 63) - 1], (np.uint8, np.uint64)),
        ([0, 300], [7, 9], (np.uint16, np.uint8)),
    ])
    def test_wide_values_roundtrip(self, tmp_path, proc, addr, dtypes):
        wide = Trace.from_columns(TraceColumns(proc, [0, 1], addr),
                                  max(proc) + 1, name="wide")
        path = str(tmp_path / "w.npz")
        save_npz(wide, path)
        arrays, _ = _stored(path)
        assert (arrays["proc"].dtype, arrays["addr"].dtype) == dtypes
        loaded = load_npz(path).columns()
        assert loaded == wide.columns() and _narrowest_columns(loaded)

    def test_negative_column_is_refused_not_wrapped(self, tmp_path):
        bad = Trace.from_columns(TraceColumns([0], [0], [-1]), 1,
                                 validate=False)
        path = str(tmp_path / "neg.npz")
        with pytest.raises(TraceError, match="negative"):
            save_npz(bad, path)
        assert not os.listdir(str(tmp_path))

    def test_empty_trace_stores_uint8(self, tmp_path):
        path = str(tmp_path / "e.npz")
        save_npz(Trace([], 2, name="empty"), path)
        arrays, _ = _stored(path)
        assert all(a.dtype == np.uint8 and len(a) == 0
                   for a in arrays.values())
        loaded = load_npz(path)
        assert len(loaded) == 0 and loaded.num_procs == 2
        assert _narrowest_columns(loaded.columns())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 600),
                              st.sampled_from(OPS),
                              st.integers(0, (1 << 63) - 1)),
                    max_size=40))
    def test_any_nonnegative_columns_roundtrip(self, events):
        original = Trace(events, max((e[0] for e in events), default=0) + 1,
                         name="h")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "h.npz")
            save_npz(original, path)
            loaded = load_npz(path)
        assert loaded == original  # num_procs and column values equal
        assert _narrowest_columns(loaded.columns())


class TestHashesWithoutCopies:
    """The buffer-fed digests equal the ones taken over ``tobytes()``."""

    @staticmethod
    def _old_array_checksum(*arrays):
        h = hashlib.sha256()
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            h.update(str(arr.dtype).encode())
            h.update(str(len(arr)).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint16,
                                       np.uint32, np.uint64])
    def test_array_checksum_matches_tobytes(self, dtype):
        base = np.arange(0, 200, 3, dtype=dtype)
        strided = base[::2]  # not contiguous: hashed via a contiguous copy
        empty = np.empty(0, dtype=dtype)
        for arrays in ((base, base, base), (strided, base, empty),
                       (empty, empty, empty)):
            assert (_array_checksum(*arrays)
                    == self._old_array_checksum(*arrays))

    def test_trace_key_matches_tobytes(self, trace):
        # The key is taken over the int64 values of the columns.
        cols = trace.columns()
        h = hashlib.sha1()
        h.update(f"{trace.name}|{trace.num_procs}".encode())
        for arr in (cols.proc, cols.op, cols.addr):
            h.update(str(len(arr)).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        assert (SweepEngine(trace).trace_key
                == f"roundtrip-{h.hexdigest()[:16]}")


class TestCached:
    def test_generates_once(self, trace, tmp_path):
        path = str(tmp_path / "cache" / "t.npz")
        calls = []

        def gen():
            calls.append(1)
            return trace

        first = cached(path, gen)
        second = cached(path, gen)
        assert first == trace and second == trace
        assert len(calls) == 1
