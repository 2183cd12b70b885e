"""Columnar (structure-of-arrays) trace core.

A :class:`TraceColumns` holds one interleaved trace as three parallel
NumPy arrays — ``proc``, ``op``, ``addr`` — each in the narrowest
*signed* dtype that holds its values, but no narrower than its floor
(:data:`COLUMN_FLOORS`): ``op`` is int8, ``proc`` int8 (int16 past 128
processors) and ``addr`` int32 (int64 once an address reaches 2**31).
A registry trace therefore takes 6 bytes an event in memory.  Signed,
so that -1 sentinels and differences stay exact.  The dtype is chosen
once per column: slices, gathers and concatenations keep it.  It is the
only storage of a :class:`~repro.trace.trace.Trace`: tuple input is
encoded once, by :meth:`TraceColumns.from_events`, which is also the
gate that rejects malformed tuples.

The columns are values, not widths: equality, the trace-cache checksum
pins and the sweep engine's trace key are taken over the values
(:func:`int64_slices` widens a column a slice at a time for the
digests).  A consumer that shifts, multiplies or updates a whole column
in place widens it first; the kernels cast each batch's rows to int64
(:class:`~repro.kernels.classifiers.KernelContext`).

The columnar form is what makes parameter sweeps cheap (see
:mod:`repro.analysis.engine`): per-block-size derived columns are single
vectorized expressions (``addr >> shift``), the data-op prefilter is a
boolean mask instead of a per-event branch, and slicing is a NumPy view.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import TraceError
from .events import ACQUIRE, Event, LOAD, OPS, RELEASE, STORE

#: The narrowest dtype each column is held in; a column whose values do
#: not fit takes the next wider signed dtype that holds them.
COLUMN_FLOORS = {"proc": np.dtype(np.int8), "op": np.dtype(np.int8),
                 "addr": np.dtype(np.int32)}

_SIGNED = tuple(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64))

#: Events per slice when tuples are encoded into columns or decoded back,
#: and when a column is widened for a digest.
_ENCODE_ROWS = 1 << 14

_INT64 = np.iinfo(np.int64)


def column_dtype(lo: int, hi: int, floor: np.dtype) -> np.dtype:
    """The narrowest signed dtype, no narrower than ``floor``, that holds
    every value in ``[lo, hi]``."""
    for dtype in _SIGNED:
        if dtype.itemsize >= floor.itemsize:
            info = np.iinfo(dtype)
            if info.min <= lo and hi <= info.max:
                return dtype
    raise TraceError(f"value {hi if hi > _INT64.max else lo} outside int64")


def _as_column(values, label: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise TraceError(f"{label} column must be one-dimensional, "
                         f"got shape {arr.shape}")
    floor = COLUMN_FLOORS[label]
    if arr.dtype == floor:
        return arr
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    if not len(arr):
        return arr.astype(floor)
    dtype = column_dtype(int(arr.min()), int(arr.max()), floor)
    if arr.dtype.kind == "u" and arr.dtype.itemsize == dtype.itemsize:
        return arr.view(dtype)  # top bit clear: the same values, no copy
    return arr.astype(dtype, copy=False)


def int64_slices(column: np.ndarray) -> Iterator[memoryview]:
    """The bytes of ``column`` widened to int64, a slice at a time, so a
    digest of a trace's values never builds a trace-sized int64 copy."""
    for lo in range(0, len(column), _ENCODE_ROWS):
        part = np.ascontiguousarray(column[lo:lo + _ENCODE_ROWS],
                                    dtype=np.int64)
        yield memoryview(part).cast("B")


class TraceColumns:
    """Three parallel narrow integer arrays encoding an interleaved trace.

    Parameters
    ----------
    proc, op, addr:
        Equal-length one-dimensional arrays (anything ``np.asarray``
        accepts).  Each is held in the narrowest signed dtype, no
        narrower than its :data:`COLUMN_FLOORS` entry, that holds its
        values.  An array already of that dtype is stored by reference
        (zero-copy), and so is an unsigned one of the same width (as a
        signed view: its top bit is clear); any other is converted.
    """

    __slots__ = ("proc", "op", "addr")

    def __init__(self, proc, op, addr):
        self.proc = _as_column(proc, "proc")
        self.op = _as_column(op, "op")
        self.addr = _as_column(addr, "addr")
        if not (len(self.proc) == len(self.op) == len(self.addr)):
            raise TraceError(
                f"column lengths differ: proc={len(self.proc)} "
                f"op={len(self.op)} addr={len(self.addr)}")

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "TraceColumns":
        """Encode ``(proc, op, addr)`` tuples.

        Every field must be an integer within int64, with ``proc`` and
        ``addr`` non-negative and ``op`` a valid opcode; anything else
        raises :class:`~repro.errors.TraceError` rather than being coerced.
        """
        if not isinstance(events, Sequence):
            events = list(events)
        n = len(events)
        # Each column gets its own buffer at its floor dtype, filled a
        # slice of events at a time and widened when a slice brings a
        # value it cannot hold, so no trace-sized int64 temporary is built.
        columns = [np.empty(n, dtype=dtype)
                   for dtype in COLUMN_FLOORS.values()]
        for lo in range(0, n, _ENCODE_ROWS):
            packed = _encode_chunk(events[lo:lo + _ENCODE_ROWS])
            for i, values in enumerate(packed.T):
                dtype = column_dtype(int(values.min()), int(values.max()),
                                     columns[i].dtype)
                if dtype != columns[i].dtype:
                    columns[i] = columns[i].astype(dtype)
                columns[i][lo:lo + len(packed)] = values
        encoded = cls(*columns)
        encoded.validate()
        return encoded

    def to_events(self) -> List[Event]:
        """Decode into a list of ``(proc, op, addr)`` tuples."""
        return list(zip(self.proc.tolist(), self.op.tolist(),
                        self.addr.tolist()))

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.proc)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.to_events())

    @classmethod
    def _derived(cls, proc, op, addr) -> "TraceColumns":
        """Columns cut or joined from narrow ones, whose dtypes already
        hold their values: adopted as they are (a slice stays a view)."""
        columns = cls.__new__(cls)
        columns.proc, columns.op, columns.addr = proc, op, addr
        return columns

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._derived(self.proc[index], self.op[index],
                                 self.addr[index])
        return (int(self.proc[index]), int(self.op[index]),
                int(self.addr[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (np.array_equal(self.proc, other.proc)
                and np.array_equal(self.op, other.op)
                and np.array_equal(self.addr, other.addr))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceColumns: {len(self)} events>"

    def take(self, indices: np.ndarray) -> "TraceColumns":
        """Gather a subset of rows by index array."""
        return self._derived(self.proc[indices], self.op[indices],
                             self.addr[indices])

    def concat(self, other: "TraceColumns") -> "TraceColumns":
        """Row-wise concatenation (each column in the wider of the two
        dtypes)."""
        return self._derived(np.concatenate([self.proc, other.proc]),
                             np.concatenate([self.op, other.op]),
                             np.concatenate([self.addr, other.addr]))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def infer_num_procs(self) -> int:
        """``max(proc) + 1`` (1 for an empty trace)."""
        if len(self.proc) == 0:
            return 1
        return int(self.proc.max()) + 1

    def validate(self, num_procs: Optional[int] = None) -> None:
        """Vectorized well-formedness check (mirrors ``validate_event``).

        ``num_procs`` additionally bounds the processor id when given.
        """
        if len(self) == 0:
            return
        high = _INT64.max if num_procs is None else num_procs - 1
        if self.proc.min() < 0 or self.proc.max() > high:
            bad = int(self.proc[(self.proc < 0) | (self.proc > high)][0])
            bound = "" if num_procs is None else f" for {num_procs} processors"
            raise TraceError(f"processor id {bad} out of range{bound}")
        if self.op.min() < min(OPS) or self.op.max() > max(OPS):
            bad = int(self.op[(self.op < min(OPS)) | (self.op > max(OPS))][0])
            raise TraceError(f"bad opcode {bad!r}")
        if self.addr.min() < 0:
            bad = int(self.addr[self.addr < 0][0])
            raise TraceError(f"bad word address {bad!r}")

    # ------------------------------------------------------------------
    # derived columns (the sweep engine's raw material)
    # ------------------------------------------------------------------
    def op_counts(self) -> np.ndarray:
        """Event count per opcode, indexed by opcode (length 4)."""
        return np.bincount(self.op, minlength=len(OPS))[:len(OPS)]

    def data_mask(self) -> np.ndarray:
        """Boolean mask of LOAD/STORE rows (the data-op prefilter)."""
        return self.op <= STORE  # LOAD == 0, STORE == 1

    def data_indices(self) -> np.ndarray:
        """Row indices of LOAD/STORE events."""
        return np.flatnonzero(self.data_mask())

    def data_only(self) -> "TraceColumns":
        """Compressed copy containing only LOAD/STORE rows."""
        return self.take(self.data_indices())

    def sync_indices(self) -> Dict[int, np.ndarray]:
        """Row indices of ACQUIRE and RELEASE events, keyed by opcode."""
        return {ACQUIRE: np.flatnonzero(self.op == ACQUIRE),
                RELEASE: np.flatnonzero(self.op == RELEASE)}

    def block_ids(self, offset_bits: int) -> np.ndarray:
        """Block address per event: ``addr >> offset_bits``, vectorized."""
        return self.addr >> offset_bits

    def word_offsets(self, words_per_block: int) -> np.ndarray:
        """Word offset within the block per event, vectorized."""
        return self.addr & (words_per_block - 1)

    def per_processor_indices(self, num_procs: int) -> List[np.ndarray]:
        """Row indices of each processor's events (program order)."""
        return [np.flatnonzero(self.proc == p) for p in range(num_procs)]

    def touched_words(self) -> np.ndarray:
        """Sorted unique word addresses touched by data accesses."""
        return np.unique(self.addr[self.data_mask()])


def _encode_chunk(events: Sequence[Event]) -> np.ndarray:
    """``events`` as an ``(n, 3)`` integer array, or :class:`TraceError`.

    NumPy infers a signed-integer (or bool) dtype exactly when every field
    is an integer within int64; any other dtype (float, string, object,
    unsigned) or shape sends the slice to :func:`_reject_malformed`.
    """
    try:
        packed = np.array(events)
    except ValueError:  # ragged: some event is not a flat triple
        packed = None
    if (packed is None or packed.shape[1:] != (3,)
            or packed.dtype.kind not in "ib"):
        _reject_malformed(events)
        # Every field is an in-range integer (e.g. NumPy unsigned scalars
        # mixed with ints, which NumPy infers as float64): encode exactly.
        packed = np.array(events, dtype=np.int64)
    return packed


def _reject_malformed(events: Sequence[Event]) -> None:
    """Raise :class:`TraceError` for the first event that is not a triple
    of integers within int64."""
    for event in events:
        if not isinstance(event, (tuple, list)) or len(event) != 3:
            raise TraceError(
                f"event must be a (proc, op, addr) tuple, got {event!r}")
        for value in event:
            if not isinstance(value, (int, np.integer)):
                raise TraceError(
                    f"non-integer field {value!r} in event {event!r}")
            if not _INT64.min <= value <= _INT64.max:
                raise TraceError(
                    f"field {value} outside int64 in event {event!r}")
