"""Unit tests for the columnar trace core and the Trace stored on it."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.mem.addresses import BlockMap
from repro.trace import Trace, TraceBuilder
from repro.trace.columnar import COLUMN_DTYPE, TraceColumns
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE

EVENTS = [
    (0, STORE, 0x10),
    (1, LOAD, 0x10),
    (2, ACQUIRE, 0x100),
    (2, STORE, 0x11),
    (2, RELEASE, 0x100),
    (0, LOAD, 0x45),
]


@pytest.fixture
def cols():
    return TraceColumns.from_events(EVENTS)


class TestTraceColumns:
    def test_roundtrip(self, cols):
        assert cols.to_events() == EVENTS

    def test_len_iter_getitem(self, cols):
        assert len(cols) == len(EVENTS)
        assert list(cols) == EVENTS
        assert cols[3] == (2, STORE, 0x11)
        assert cols[1:4].to_events() == EVENTS[1:4]

    def test_empty(self):
        empty = TraceColumns.from_events([])
        assert len(empty) == 0
        assert empty.to_events() == []
        assert empty.infer_num_procs() == 1
        empty.validate(1)  # no-op, must not raise

    def test_dtype(self, cols):
        assert cols.proc.dtype == COLUMN_DTYPE
        assert cols.op.dtype == COLUMN_DTYPE
        assert cols.addr.dtype == COLUMN_DTYPE

    def test_int64_arrays_adopted_by_reference(self):
        proc = np.zeros(3, dtype=np.int64)
        op = np.zeros(3, dtype=np.int64)
        addr = np.arange(3, dtype=np.int64)
        c = TraceColumns(proc, op, addr)
        assert c.proc is proc and c.op is op and c.addr is addr

    def test_other_dtypes_converted(self):
        c = TraceColumns(np.zeros(2, dtype=np.int32), [0, 1], [4, 8])
        assert c.proc.dtype == COLUMN_DTYPE
        assert c.to_events() == [(0, 0, 4), (0, 1, 8)]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(TraceError):
            TraceColumns([0], [0, 0], [0])

    def test_non_1d_rejected(self):
        with pytest.raises(TraceError):
            TraceColumns(np.zeros((2, 2)), np.zeros(2), np.zeros(2))

    def test_validate_catches_bad_proc(self, cols):
        with pytest.raises(TraceError):
            cols.validate(2)  # trace uses processor 2

    def test_validate_catches_bad_opcode(self):
        with pytest.raises(TraceError):
            TraceColumns([0], [9], [0]).validate(1)

    def test_validate_catches_negative_addr(self):
        with pytest.raises(TraceError):
            TraceColumns([0], [LOAD], [-4]).validate(1)

    @pytest.mark.parametrize("events", [
        [(0, LOAD, 1.5)],            # float field
        [(0, LOAD, "3")],            # string field
        [(0, LOAD, None)],
        [(0, LOAD, 2**63)],          # outside int64
        [(0, LOAD, -2**63 - 1)],
        [(0, LOAD, 1), (1, STORE, 2**64)],
        [(0, LOAD)],                 # not a triple
        [(0, LOAD, 1), (0, LOAD, 1, 2)],
        [(-1, LOAD, 0)],             # the ranges validate_event checks
        [(0, 9, 0)],
        [(0, LOAD, -4)],
    ])
    def test_from_events_rejects_malformed(self, events):
        with pytest.raises(TraceError):
            TraceColumns.from_events(events)

    def test_from_events_accepts_numpy_integers(self):
        events = [(np.int32(1), LOAD, np.uint64(7))]
        assert TraceColumns.from_events(events).to_events() == [(1, LOAD, 7)]

    def test_infer_num_procs(self, cols):
        assert cols.infer_num_procs() == 3

    def test_eq(self, cols):
        assert cols == TraceColumns.from_events(EVENTS)
        assert cols != TraceColumns.from_events(EVENTS[:-1])

    def test_take_and_concat(self, cols):
        taken = cols.take(np.array([0, 5]))
        assert taken.to_events() == [EVENTS[0], EVENTS[5]]
        joined = taken.concat(taken)
        assert joined.to_events() == [EVENTS[0], EVENTS[5]] * 2


class TestDerivedColumns:
    def test_op_counts(self, cols):
        counts = cols.op_counts()
        assert counts[LOAD] == 2 and counts[STORE] == 2
        assert counts[ACQUIRE] == 1 and counts[RELEASE] == 1

    def test_data_mask_and_indices(self, cols):
        assert cols.data_mask().tolist() == [True, True, False, True,
                                             False, True]
        assert cols.data_indices().tolist() == [0, 1, 3, 5]

    def test_data_only(self, cols):
        data = cols.data_only()
        assert data.to_events() == [ev for ev in EVENTS
                                    if ev[1] in (LOAD, STORE)]

    def test_sync_indices(self, cols):
        sync = cols.sync_indices()
        assert sync[ACQUIRE].tolist() == [2]
        assert sync[RELEASE].tolist() == [4]

    def test_block_ids_match_block_map(self, cols):
        for bb in (4, 64, 1024):
            bm = BlockMap(bb)
            expected = [bm.block_of(a) for _, _, a in EVENTS]
            assert cols.block_ids(bm.offset_bits).tolist() == expected

    def test_word_offsets(self, cols):
        bm = BlockMap(64)
        wpb = bm.words_per_block
        expected = [a % wpb for _, _, a in EVENTS]
        assert cols.word_offsets(wpb).tolist() == expected

    def test_per_processor_indices(self, cols):
        segs = cols.per_processor_indices(3)
        assert [s.tolist() for s in segs] == [[0, 5], [1], [2, 3, 4]]

    def test_touched_words(self, cols):
        assert cols.touched_words().tolist() == [0x10, 0x11, 0x45]


class TestDualRepresentationTrace:
    """A trace built from tuples and one built from columns are the same
    columnar trace."""

    def test_columnar_trace_infers_num_procs(self):
        t = Trace.from_columns(TraceColumns.from_events(EVENTS))
        assert t.num_procs == 3

    def test_columnar_validation(self):
        with pytest.raises(TraceError):
            Trace.from_columns(TraceColumns.from_events(EVENTS), 2)

    def test_equality_across_representations(self):
        tuple_trace = Trace(EVENTS, 3)
        col_trace = Trace.from_columns(TraceColumns.from_events(EVENTS), 3)
        assert tuple_trace == col_trace
        assert col_trace == tuple_trace

    def test_sequence_protocol_on_columnar_trace(self):
        t = Trace.from_columns(TraceColumns.from_events(EVENTS), 3)
        assert len(t) == len(EVENTS)
        assert t[3] == EVENTS[3]
        assert list(t) == EVENTS

    def test_columnar_slicing_stays_columnar(self):
        t = Trace.from_columns(TraceColumns.from_events(EVENTS), 3)
        head = t[:4]
        assert np.shares_memory(head.columns().proc, t.columns().proc)
        assert head.events == EVENTS[:4]

    def test_columnar_concat(self):
        t = Trace.from_columns(TraceColumns.from_events(EVENTS), 3)
        joined = t.concat(t)
        assert joined.events == EVENTS * 2

    def test_counts_agree_across_representations(self):
        tuple_trace = Trace(EVENTS, 3)
        col_trace = Trace.from_columns(TraceColumns.from_events(EVENTS), 3)
        assert tuple_trace.counts() == col_trace.counts()

    def test_touched_sets_agree_across_representations(self):
        tuple_trace = Trace(EVENTS, 3)
        col_trace = Trace.from_columns(TraceColumns.from_events(EVENTS), 3)
        assert tuple_trace.touched_words() == col_trace.touched_words()
        bm = BlockMap(64)
        assert (tuple_trace.touched_blocks(bm)
                == col_trace.touched_blocks(bm))

    def test_copy_true_defends_against_mutation(self):
        events = list(EVENTS)
        t = Trace(events, 3)
        events.append((0, LOAD, 0))
        assert len(t) == len(EVENTS)

    def test_builder_produces_column_ready_trace(self):
        t = (TraceBuilder(2).store(0, 0x10).load(1, 0x10).build("b"))
        assert t.columns().to_events() == [(0, STORE, 0x10), (1, LOAD, 0x10)]
