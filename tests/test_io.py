"""Unit tests for trace serialization (text and npz)."""

import numpy as np
import pytest

from repro.errors import TraceError, TraceFormatError
from repro.trace import Trace, TraceBuilder
from repro.trace.io import (
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
