"""Columnar (structure-of-arrays) trace core.

A :class:`TraceColumns` holds one interleaved trace as three parallel
``int64`` NumPy arrays — ``proc``, ``op``, ``addr`` — matching the layout
of the on-disk ``.npz`` format (:mod:`repro.trace.io`), so traces load and
save with zero copies.  It is the only storage of a
:class:`~repro.trace.trace.Trace`: tuple input is encoded once, by
:meth:`TraceColumns.from_events`, which is also the gate that rejects
malformed tuples.

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

#: dtype of all three columns (matches the ``.npz`` format).
COLUMN_DTYPE = np.int64

#: Events per slice when tuples are encoded into columns or decoded back.
_ENCODE_ROWS = 1 << 14

_INT64 = np.iinfo(COLUMN_DTYPE)


def _as_column(values, label: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype != COLUMN_DTYPE:
        arr = arr.astype(COLUMN_DTYPE)
    if arr.ndim != 1:
        raise TraceError(f"{label} column must be one-dimensional, "
                         f"got shape {arr.shape}")
    return arr


class TraceColumns:
    """Three parallel ``int64`` arrays encoding an interleaved trace.

    Parameters
    ----------
    proc, op, addr:
        Equal-length one-dimensional arrays (anything ``np.asarray``
        accepts).  Arrays already of dtype int64 are stored by reference
        (zero-copy); other dtypes are converted.
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
        # Each column gets its own compact buffer, filled a slice of
        # events at a time, so no trace-sized 3xN temporary is built.
        columns = [np.empty(n, dtype=COLUMN_DTYPE) for _ in range(3)]
        for lo in range(0, n, _ENCODE_ROWS):
            packed = _encode_chunk(events[lo:lo + _ENCODE_ROWS])
            for column, values in zip(columns, packed.T):
                column[lo:lo + len(packed)] = values
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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TraceColumns(self.proc[index], self.op[index],
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
        return TraceColumns(self.proc[indices], self.op[indices],
                            self.addr[indices])

    def concat(self, other: "TraceColumns") -> "TraceColumns":
        """Row-wise concatenation."""
        return TraceColumns(np.concatenate([self.proc, other.proc]),
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
        packed = np.array(events, dtype=COLUMN_DTYPE)
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
