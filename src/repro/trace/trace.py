"""The :class:`Trace` container.

A trace is an interleaved, *totally ordered* sequence of events from a fixed
number of processors (the paper uses trace-driven simulation precisely so
that the interleaving is fixed across protocol experiments — section 5.0).

Internally a trace holds one (or both) of two equivalent representations:

* the classic **tuple list** — ``[(proc, op, addr), ...]`` — which every
  streaming consumer (classifiers, protocols, validators) iterates;
* the **columnar core** — :class:`~repro.trace.columnar.TraceColumns`,
  three parallel int64 NumPy arrays — which vectorized consumers (the sweep
  engine, I/O, statistics) operate on directly.

Whichever representation a trace is built from, the other is derived
lazily on first use and cached, so existing tuple-based code keeps working
unchanged while array-based code avoids ever materializing tuples.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..errors import TraceError
from .columnar import TraceColumns
from .events import (
    ACQUIRE,
    DATA_OPS,
    Event,
    LOAD,
    RELEASE,
    STORE,
    format_event,
    validate_event,
)


class Trace:
    """An immutable-by-convention interleaved reference trace.

    Parameters
    ----------
    events:
        Sequence of ``(proc, op, addr)`` tuples in global (interleaved)
        order, or a :class:`~repro.trace.columnar.TraceColumns` holding the
        same data as parallel arrays (stored by reference, zero-copy).
    num_procs:
        Number of processors.  If omitted it is inferred as ``max(proc)+1``.
    name:
        Optional human-readable name (e.g. ``"MP3D1000"``).
    meta:
        Free-form metadata dictionary (workload configuration, seed, the
        simulated data-set size, ...).  Stored by reference.
    validate:
        When true (default), every event is checked for well-formedness.
    copy:
        When true (default), a tuple-sequence input is defensively copied
        with ``list(events)``.  Trusted internal callers that hand over a
        freshly built list they will never mutate again (the builder, the
        I/O readers, the interleavers, the machine scheduler) pass
        ``copy=False`` to skip that O(n) copy.  Ignored for columnar input,
        which is always stored by reference.
    """

    __slots__ = ("_events", "_columns", "num_procs", "name", "meta")

    def __init__(self,
                 events: Union[Sequence[Event], TraceColumns],
                 num_procs: Optional[int] = None,
                 *, name: str = "", meta: Optional[dict] = None,
                 validate: bool = True, copy: bool = True):
        columns: Optional[TraceColumns] = None
        if isinstance(events, TraceColumns):
            columns = events
            events = None
        else:
            if copy or not isinstance(events, list):
                events = list(events)
        if num_procs is None:
            if columns is not None:
                num_procs = columns.infer_num_procs()
            else:
                num_procs = 1 + max((ev[0] for ev in events), default=-1)
                if num_procs == 0:
                    num_procs = 1
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        if validate:
            if columns is not None:
                columns.validate(num_procs)
            else:
                for ev in events:
                    validate_event(ev, num_procs)
        self._events: Optional[List[Event]] = events
        self._columns: Optional[TraceColumns] = columns
        self.num_procs: int = num_procs
        self.name: str = name
        self.meta: dict = dict(meta or {})

    # ------------------------------------------------------------------
    # representations
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Event]:
        """The tuple-list representation (materialized lazily and cached)."""
        if self._events is None:
            self._events = self._columns.to_events()
        return self._events

    def columns(self) -> TraceColumns:
        """The columnar representation (built lazily and cached)."""
        if self._columns is None:
            self._columns = TraceColumns.from_events(self._events)
        return self._columns

    def event_chunks(self, size: int) -> Iterator[Iterable[Event]]:
        """The events as consecutive slices of at most ``size`` each.

        Each slice iterates ``(proc, op, addr)`` tuples.  Slices come
        from whichever representation the trace already holds: a
        columnar-only trace (e.g. one loaded from a trace cache) is read
        one column slice at a time through ``tolist()``, so its tuple
        list is never built.
        """
        if self._events is not None:
            events = self._events
            for start in range(0, len(events), size):
                yield events[start:start + size]
            return
        cols = self._columns
        for start in range(0, len(cols), size):
            stop = start + size
            yield zip(cols.proc[start:stop].tolist(),
                      cols.op[start:stop].tolist(),
                      cols.addr[start:stop].tolist())

    @property
    def has_columns(self) -> bool:
        """True if the columnar representation is already built."""
        return self._columns is not None

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
        if self._events is not None:
            return len(self._events)
        return len(self._columns)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._events is None:
                # Columnar-only trace: slice as NumPy views, zero-copy.
                return Trace(self._columns[index], self.num_procs,
                             name=self.name, meta=self.meta, validate=False)
            return Trace(self._events[index], self.num_procs,
                         name=self.name, meta=self.meta, validate=False)
        if self._events is None:
            return self._columns[index]
        return self._events[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if self.num_procs != other.num_procs:
            return False
        if self._columns is not None and other._columns is not None:
            return self._columns == other._columns
        return self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (f"<Trace{label}: {len(self)} events, "
                f"{self.num_procs} procs>")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def data_events(self) -> Iterator[Event]:
        """Only LOAD/STORE events, in order."""
        return (ev for ev in self.events if ev[1] in DATA_OPS)

    def per_processor(self) -> Dict[int, List[Event]]:
        """Split into per-processor streams (program order preserved)."""
        streams: Dict[int, List[Event]] = {p: [] for p in range(self.num_procs)}
        for ev in self.events:
            streams[ev[0]].append(ev)
        return streams

    def touched_words(self) -> set:
        """Set of word addresses touched by data accesses."""
        if self._columns is not None:
            return set(self._columns.touched_words().tolist())
        return {addr for _, op, addr in self._events if op in DATA_OPS}

    def touched_blocks(self, block_map) -> set:
        """Set of block addresses touched by data accesses."""
        if self._columns is not None:
            cols = self._columns
            blocks = cols.block_ids(block_map.offset_bits)[cols.data_mask()]
            return set(np.unique(blocks).tolist())
        return {block_map.block_of(addr)
                for _, op, addr in self._events if op in DATA_OPS}

    def counts(self) -> "TraceCounts":
        """Event counts by opcode (see :class:`TraceCounts`)."""
        if self._columns is not None:
            per_op = self._columns.op_counts()
            return TraceCounts(int(per_op[LOAD]), int(per_op[STORE]),
                               int(per_op[ACQUIRE]), int(per_op[RELEASE]))
        loads = stores = acquires = releases = 0
        for _, op, _ in self._events:
            if op == LOAD:
                loads += 1
            elif op == STORE:
                stores += 1
            elif op == ACQUIRE:
                acquires += 1
            elif op == RELEASE:
                releases += 1
        return TraceCounts(loads, stores, acquires, releases)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces over the same processor count."""
        if other.num_procs != self.num_procs:
            raise TraceError(
                f"cannot concat traces with {self.num_procs} and "
                f"{other.num_procs} processors")
        if self._events is None and other._events is None:
            return Trace(self._columns.concat(other._columns), self.num_procs,
                         name=self.name, meta=self.meta, validate=False)
        return Trace(self.events + other.events, self.num_procs,
                     name=self.name, meta=self.meta, validate=False,
                     copy=False)

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
        events = self.events
        kept: List[Event] = []
        for start in range(0, len(events), granularity):
            kept.extend(events[start:start + keep])
        return Trace(kept, self.num_procs, name=f"{self.name}~{fraction}",
                     meta=self.meta, validate=False, copy=False)

    def format(self, limit: int = 20) -> str:
        """Multi-line human-readable rendering of the first ``limit`` events."""
        events = self.events
        lines = [f"Trace {self.name or '<anonymous>'} "
                 f"({len(events)} events, {self.num_procs} procs)"]
        for i, ev in enumerate(events[:limit]):
            lines.append(f"  T{i}: {format_event(ev)}")
        if len(events) > limit:
            lines.append(f"  ... {len(events) - limit} more")
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
                 validate=False, copy=False)
