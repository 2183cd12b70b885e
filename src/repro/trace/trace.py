"""The :class:`Trace` container.

A trace is an interleaved, *totally ordered* sequence of events from a fixed
number of processors (the paper uses trace-driven simulation precisely so
that the interleaving is fixed across protocol experiments — section 5.0).

A trace stores its events only as a
:class:`~repro.trace.columnar.TraceColumns` — three parallel NumPy arrays,
each in the narrowest signed dtype that holds it (int8 ``proc`` and
``op``, int32 ``addr`` on every registry trace: 6 bytes an event).
Vectorized consumers (the sweep engine, the kernels, I/O, statistics)
operate on the arrays directly, widening to int64 where their arithmetic
could overflow a narrow column; streaming consumers (the
classifiers' and protocols' interpreters, the validators) iterate
``(proc, op, addr)`` tuples decoded one column slice at a time, so a whole
tuple list is never built.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from ..errors import TraceError
from .columnar import _ENCODE_ROWS, TraceColumns
from .events import (
    ACQUIRE,
    DATA_OPS,
    Event,
    LOAD,
    RELEASE,
    STORE,
    format_event,
)


class Trace:
    """An immutable-by-convention interleaved reference trace.

    Parameters
    ----------
    events:
        A :class:`~repro.trace.columnar.TraceColumns` (stored by reference,
        zero-copy), or ``(proc, op, addr)`` tuples in global (interleaved)
        order, which are encoded into columns once, here.
    num_procs:
        Number of processors.  If omitted it is inferred as ``max(proc)+1``.
    name:
        Optional human-readable name (e.g. ``"MP3D1000"``).
    meta:
        Free-form metadata dictionary (workload configuration, seed, the
        simulated data-set size, ...).  Copied.
    validate:
        When true (default), processor ids are checked against
        ``num_procs`` and every event for well-formedness.  Tuple input is
        always checked for well-formedness while it is encoded.
    """

    __slots__ = ("_columns", "num_procs", "name", "meta")

    def __init__(self,
                 events: Union[Iterable[Event], TraceColumns],
                 num_procs: Optional[int] = None,
                 *, name: str = "", meta: Optional[dict] = None,
                 validate: bool = True):
        columns = (events if isinstance(events, TraceColumns)
                   else TraceColumns.from_events(events))
        if num_procs is None:
            num_procs = columns.infer_num_procs()
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        if validate:
            columns.validate(num_procs)
        self._columns = columns
        self.num_procs: int = num_procs
        self.name: str = name
        self.meta: dict = dict(meta or {})

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Event]:
        """The events as a fresh tuple list, decoded on every access."""
        return list(self)

    def columns(self) -> TraceColumns:
        """The columnar storage (the arrays themselves, not a copy)."""
        return self._columns

    def event_chunks(self, size: int) -> Iterator[Iterable[Event]]:
        """The events as consecutive slices of at most ``size`` each.

        Each slice iterates ``(proc, op, addr)`` tuples decoded from one
        column slice through ``tolist()``.
        """
        cols = self._columns
        for start in range(0, len(cols), size):
            stop = start + size
            yield zip(cols.proc[start:stop].tolist(),
                      cols.op[start:stop].tolist(),
                      cols.addr[start:stop].tolist())

    @classmethod
    def from_columns(cls, columns: TraceColumns,
                     num_procs: Optional[int] = None,
                     *, name: str = "", meta: Optional[dict] = None,
                     validate: bool = True) -> "Trace":
        """Build a trace directly over parallel arrays (zero-copy)."""
        return cls(columns, num_procs, name=name, meta=meta,
                   validate=validate)

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Event]:
        return chain.from_iterable(self.event_chunks(_ENCODE_ROWS))

    def __getitem__(self, index):
        if isinstance(index, slice):
            # Slices are NumPy views: zero-copy.
            return Trace(self._columns[index], self.num_procs,
                         name=self.name, meta=self.meta, validate=False)
        return self._columns[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.num_procs == other.num_procs
                and self._columns == other._columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (f"<Trace{label}: {len(self)} events, "
                f"{self.num_procs} procs>")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def data_events(self) -> Iterator[Event]:
        """Only LOAD/STORE events, in order."""
        return (ev for ev in self if ev[1] in DATA_OPS)

    def per_processor(self) -> Dict[int, List[Event]]:
        """Split into per-processor streams (program order preserved)."""
        streams: Dict[int, List[Event]] = {p: [] for p in range(self.num_procs)}
        for ev in self:
            streams[ev[0]].append(ev)
        return streams

    def touched_words(self) -> set:
        """Set of word addresses touched by data accesses."""
        return set(self._columns.touched_words().tolist())

    def touched_blocks(self, block_map) -> set:
        """Set of block addresses touched by data accesses."""
        cols = self._columns
        blocks = cols.block_ids(block_map.offset_bits)[cols.data_mask()]
        return set(np.unique(blocks).tolist())

    def counts(self) -> "TraceCounts":
        """Event counts by opcode (see :class:`TraceCounts`)."""
        per_op = self._columns.op_counts()
        return TraceCounts(int(per_op[LOAD]), int(per_op[STORE]),
                           int(per_op[ACQUIRE]), int(per_op[RELEASE]))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces over the same processor count."""
        if other.num_procs != self.num_procs:
            raise TraceError(
                f"cannot concat traces with {self.num_procs} and "
                f"{other.num_procs} processors")
        return Trace(self._columns.concat(other._columns), self.num_procs,
                     name=self.name, meta=self.meta, validate=False)

    def head(self, n: int) -> "Trace":
        """First ``n`` events as a new trace."""
        return self[:n]

    def sample(self, fraction: float, *, granularity: int = 10_000) -> "Trace":
        """Deterministic prefix-of-window sampling for quick experiments.

        Keeps the first ``fraction`` of every ``granularity``-event window.
        This preserves local interleaving structure (unlike random event
        sampling, which would tear synchronization pairs apart).  Sampling is
        an approximation: cold-miss counts are biased high relative to a full
        run, which is documented in EXPERIMENTS.md wherever it is used.
        """
        if not 0.0 < fraction <= 1.0:
            raise TraceError(f"sample fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        keep = max(1, int(granularity * fraction))
        mask = np.arange(len(self)) % granularity < keep
        return Trace(self._columns.take(mask), self.num_procs,
                     name=f"{self.name}~{fraction}", meta=self.meta,
                     validate=False)

    def format(self, limit: int = 20) -> str:
        """Multi-line human-readable rendering of the first ``limit`` events."""
        lines = [f"Trace {self.name or '<anonymous>'} "
                 f"({len(self)} events, {self.num_procs} procs)"]
        for i, ev in enumerate(self[:limit]):
            lines.append(f"  T{i}: {format_event(ev)}")
        if len(self) > limit:
            lines.append(f"  ... {len(self) - limit} more")
        return "\n".join(lines)


class TraceCounts:
    """Opcode counts of a trace (reads/writes/acquires/releases)."""

    __slots__ = ("loads", "stores", "acquires", "releases")

    def __init__(self, loads: int, stores: int, acquires: int, releases: int):
        self.loads = loads
        self.stores = stores
        self.acquires = acquires
        self.releases = releases

    @property
    def data(self) -> int:
        """Total data references (the denominator of every miss rate)."""
        return self.loads + self.stores

    @property
    def total(self) -> int:
        return self.data + self.acquires + self.releases

    def as_dict(self) -> dict:
        return {"loads": self.loads, "stores": self.stores,
                "acquires": self.acquires, "releases": self.releases}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceCounts):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceCounts(loads={self.loads}, stores={self.stores}, "
                f"acquires={self.acquires}, releases={self.releases})")


def merge_program_order(streams: Dict[int, Iterable[Event]],
                        order: Iterable[int]) -> Trace:
    """Rebuild an interleaved trace from per-processor streams.

    ``order`` gives, for each global position, the processor whose next
    event is taken.  This is the inverse of :meth:`Trace.per_processor` and
    is used by the interleaving utilities and tests.
    """
    iters = {p: iter(s) for p, s in streams.items()}
    events: List[Event] = []
    for p in order:
        try:
            events.append(next(iters[p]))
        except StopIteration:
            raise TraceError(f"order names processor {p} past end of its stream")
        except KeyError:
            raise TraceError(f"order names unknown processor {p}")
    for p, it in iters.items():
        leftover = next(it, None)
        if leftover is not None:
            raise TraceError(f"order leaves events of processor {p} unconsumed")
    return Trace(events, num_procs=max(streams) + 1 if streams else 1,
                 validate=False)
