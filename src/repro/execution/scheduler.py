"""Cycle-based cooperative scheduler for simulated parallel programs.

A :class:`Machine` runs one generator *thread* per processor.  Time advances
in cycles; in each cycle every non-blocked processor executes exactly one
event-producing operation (loads, stores, acquires, releases each take one
cycle — the "perfect memory system" of the paper's Table 2 speedup
definition).  Blocked processors consume the cycle without emitting events.

The interleaving produced is deterministic for a given ``order`` policy and
seed, which is the point: the paper switched from execution-driven to
trace-driven simulation precisely so all protocols see the same interleaved
trace (section 5.0).  The machine produces that trace once, placing each
event's processor, opcode and address into three typed buffers that become
the trace's columns without a copy: ``proc`` and ``op`` one byte an event,
``addr`` four (see :mod:`repro.trace.columnar`; the proc buffer takes two
bytes past 128 threads, and the address buffer is widened to eight bytes,
once, when a block brings an address outside int32).  The protocol
simulators then replay it.

Stamped runs and flush blocks
-----------------------------
A thread that yields a reference run (``("run", ops, addrs)``, see
:mod:`repro.execution.ops`) at cycle ``c`` emits reference ``i`` of it at
cycle ``c + i`` and is not resumed until the run is used up, so the
machine records only the run and its first cycle.  Each cycle's scan skips
a thread that is inside a run.  A single mem or sync event is stamped with
the cycle it is emitted in.  When a scanned cycle resumes no generator —
every live thread is inside a run or blocked on a false predicate —
nothing can change until the first of those runs ends, and the machine
moves straight to that cycle (clamped so ``max_cycles`` still fires at the
same cycle) without building anything.

Stamped events are placed in the trace in the order the per-cycle scan
would have emitted them in.  A flush block puts each of its events in a
(cycle, processor) grid — a processor emits at most one event a cycle —
and reads every row in that cycle's scan order: ``live[c % n:] +
live[:c % n]`` under ``rotate``, ``live`` under ``fixed`` and the cycle's
recorded shuffle under ``random``.  Blocks span ``FLUSH_EVENTS // P``
cycles (at most :data:`FLUSH_EVENTS` events), so their arrays stay
cache-sized whatever the length of the runs; the events stamped so far
are also placed before the live list changes, since the scans depend on
it.

This relies on one contract: a ``block`` predicate is pure.  It reads
shared state and changes none, so evaluating it once more, or once less,
than the per-cycle scan would cannot move an event.  Every primitive in
:mod:`repro.execution.primitives` already blocks on such a predicate.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import DeadlockError, SimulationError
from ..trace.columnar import COLUMN_FLOORS, TraceColumns, column_dtype
from ..trace.events import ACQUIRE, LOAD, RELEASE, STORE
from ..trace.trace import Trace
from .ops import BLOCK, MEM, RUN, SYNC

ThreadBody = Iterator  # a generator yielding ops

#: A validated run's opcodes: one opcode for every reference, or one each.
RunOps = Union[int, np.ndarray]

#: Most events one flush block places: a block spans ``FLUSH_EVENTS // P``
#: cycles of a ``P``-thread run, so its placement arrays stay cache-sized.
FLUSH_EVENTS = 8192

_INT64 = np.dtype(np.int64)
_INT32 = np.iinfo(np.int32)


class Machine:
    """A simulated ``num_procs``-processor shared-memory machine.

    Parameters
    ----------
    num_procs:
        Number of processors; thread ``i`` runs on processor ``i``.
    order:
        Per-cycle processor scan order: ``"rotate"`` (default — start the
        scan one processor later each cycle, a fair round-robin), ``"fixed"``
        (always scan 0..N-1) or ``"random"`` (seeded shuffle each cycle).
    seed:
        Seed for the ``"random"`` order policy.
    """

    def __init__(self, num_procs: int, *, order: str = "rotate", seed: int = 0):
        if num_procs <= 0:
            raise SimulationError(f"num_procs must be positive, got {num_procs}")
        if order not in ("rotate", "fixed", "random"):
            raise SimulationError(f"unknown order policy {order!r}")
        self.num_procs = num_procs
        self.order = order
        self.seed = seed

    def run(self, threads: Sequence[ThreadBody], *, name: str = "",
            meta: Optional[dict] = None, max_cycles: int = 200_000_000) -> Trace:
        """Run the threads to completion and return the interleaved trace.

        ``threads[i]`` runs on processor ``i``; fewer threads than
        processors is allowed (idle processors emit nothing).
        """
        if len(threads) > self.num_procs:
            raise SimulationError(
                f"{len(threads)} threads for {self.num_procs} processors")
        resume = [gen.__next__ for gen in threads]
        count = len(resume)
        done = [False] * count
        # The predicate each blocked thread waits on, None when runnable.
        blocked: List[Optional[Callable[[], bool]]] = [None] * count
        # The cycle each thread's current run is used up in: the thread is
        # inside a run while ``run_end[p] > cycle``.
        run_end = [0] * count
        stamped = _Stamped(max(count, 1), self.order)
        stamp = stamped.singles.extend
        start_run = stamped.runs.append
        record_scan = stamped.scans.append
        order = self.order
        rng = random.Random(self.seed)
        cycles = 0
        live = list(range(count))

        while live:
            if cycles >= max_cycles:
                stamped.place(cycles, live)
                raise SimulationError(
                    f"execution exceeded {max_cycles} cycles "
                    f"({stamped.placed} events so far)")
            if cycles - stamped.start >= stamped.block:
                stamped.place(cycles, live)
            nlive = len(live)
            if order == "random":
                # A shuffle of one thread draws nothing, as in the oracle.
                scan = list(live)
                rng.shuffle(scan)
                record_scan(scan)
            elif order == "fixed" or nlive == 1:
                scan = live
            else:
                first = cycles % nlive
                scan = live[first:] + live[:first]
            emitted = resumed = finished = False
            for p in scan:
                if run_end[p] > cycles:
                    continue  # inside a run: its reference is stamped
                predicate = blocked[p]
                if predicate is not None:
                    # A blocked processor re-evaluates its predicate; if
                    # still false the cycle is spent waiting.
                    if not predicate():
                        continue
                    blocked[p] = None
                resumed = True
                pull = resume[p]
                while True:
                    try:
                        op = pull()
                    except StopIteration:
                        done[p] = finished = True
                        break
                    kind = op[0]
                    if kind == MEM:
                        _, memop, addr = op
                        if memop not in (LOAD, STORE):
                            raise SimulationError(
                                f"bad mem op {op!r} from P{p}")
                        stamp((cycles, p, memop, addr))
                        emitted = True
                        break
                    if kind == SYNC:
                        _, syncop, addr = op
                        if syncop not in (ACQUIRE, RELEASE):
                            raise SimulationError(
                                f"bad sync op {op!r} from P{p}")
                        stamp((cycles, p, syncop, addr))
                        emitted = True
                        break
                    if kind == BLOCK:
                        predicate = op[1]
                        if predicate():
                            # Not actually blocked: pull the next op
                            # within the same cycle (blocking is free
                            # when the condition already holds).
                            continue
                        blocked[p] = predicate
                        break
                    if kind == RUN:
                        run_op, run_addr = _validate_run(op, p)
                        if not len(run_addr):
                            continue  # an empty run costs no cycle
                        start_run([p, cycles, run_op, run_addr, 0])
                        run_end[p] = cycles + len(run_addr)
                        emitted = True
                        break
                    raise SimulationError(f"unknown op {op!r} from P{p}")
            if finished:
                # Slots are computed from the live list: place this
                # cycle's events before it changes.
                stamped.place(cycles + 1, live)
                live = [p for p in live if not done[p]]
            # A cycle in which nothing ran and nobody is left (the scan that
            # merely discovered termination) costs no simulated time.  A
            # thread inside a run is still live, so ``emitted`` is all that
            # can make such a cycle count.
            if emitted or live:
                cycles += 1
            if finished or emitted:
                continue
            in_run = [run_end[p] for p in live if run_end[p] >= cycles]
            if not in_run:
                # Every live thread ended the cycle blocked.  One may have
                # unblocked, run non-emitting code that satisfied someone
                # else's predicate (e.g. a flag set) and re-blocked, all
                # within this cycle.  Re-evaluate before declaring
                # deadlock: only a cycle where every live thread is blocked
                # on a *currently false* predicate is stuck.
                if not any(blocked[p]() for p in live):
                    stamped.place(cycles, live)
                    raise DeadlockError(
                        f"deadlock at cycle {cycles}: processors {live} all "
                        f"blocked ({stamped.placed} events emitted)")
            elif not resumed:
                # A quiet cycle (see the module docstring): nothing changes
                # until the first run ends.
                target = min(min(in_run), max_cycles)
                if order == "random":
                    for _ in range(cycles, target):
                        scan = list(live)
                        rng.shuffle(scan)
                        record_scan(scan)
                cycles = target

        full_meta = dict(meta or {})
        full_meta.setdefault("cycles", cycles)
        full_meta.setdefault("num_procs", self.num_procs)
        trace_columns = TraceColumns(
            *(np.frombuffer(column, dtype=column.typecode)
              for column in stamped.columns))
        return Trace(trace_columns, self.num_procs, name=name,
                     meta=full_meta, validate=False)


class _Stamped:
    """Events stamped with their cycle, not yet placed in the trace.

    A single event is one ``(cycle, proc, op, addr)`` row of ``singles``; a
    run is ``[proc, first cycle, ops, addrs, next unplaced index]`` in
    ``runs`` and emits reference ``i`` at cycle ``first + i``.  Under the
    ``random`` order ``scans`` holds each cycle's shuffle from ``start``
    on.  :meth:`place` moves every event stamped before a cycle into the
    three column buffers, in (cycle, scan slot) order.  The buffers hold
    each column at its floor dtype (int8 ``proc`` — int16 past 128
    threads — int8 ``op`` and int32 ``addr``, see
    :data:`~repro.trace.columnar.COLUMN_FLOORS`); the address buffer
    becomes int64 the first time a block brings an address outside
    int32.
    """

    def __init__(self, width: int, order: str):
        self.width = width
        self.order = order
        self.block = max(1, FLUSH_EVENTS // width)
        self.start = 0  # the first cycle not yet placed
        self.singles = array("q")
        self.runs: List[list] = []
        self.scans: List[List[int]] = []
        self.columns = [
            array(column_dtype(0, width - 1, COLUMN_FLOORS["proc"]).char),
            array("b"), array("i")]
        # The last scan grid built: (live list, key, grid).
        self._grid_cache: Optional[tuple] = None

    @property
    def placed(self) -> int:
        """Events placed so far."""
        return len(self.columns[0])

    def place(self, upto: int, live: List[int]) -> None:
        """Place every event stamped before cycle ``upto``; ``live`` is the
        live list of every cycle since the last placement."""
        singles = np.array(self.singles, dtype=np.int64).reshape(-1, 4)
        del self.singles[:]
        # Singles are stamped in cycle order: cut them at block boundaries.
        cuts = np.searchsorted(
            singles[:, 0], np.arange(self.start, upto, self.block)[1:])
        for lo, rows in zip(range(self.start, upto, self.block),
                            np.split(singles, cuts)):
            self._place_block(lo, min(upto, lo + self.block), rows, live)
        del self.scans[:upto - self.start]
        self.start = upto

    def _scan_grid(self, lo: int, hi: int,
                   live: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The scans of cycles ``[lo, hi)``, flat: each cycle's processors
        in slot order, and their cells of the block's grid.

        Under ``rotate`` and ``fixed`` the grid depends only on the live
        list, the block's length and (``rotate``) its first cycle modulo
        the live count, so consecutive blocks reuse it.
        """
        width, nlive = self.width, len(live)
        if self.order == "random":
            scan = np.array(self.scans[lo - self.start:hi - self.start])
        else:
            key = (lo % nlive if self.order == "rotate" else 0, hi - lo)
            cached = self._grid_cache
            if cached is not None and cached[0] is live and cached[1] == key:
                return cached[2]
            first = np.arange(lo, hi) % nlive if self.order == "rotate" \
                else np.zeros(hi - lo, dtype=np.int64)
            scan = np.asarray(live)[(first[:, None] + np.arange(nlive))
                                    % nlive]
        grid = (scan.ravel().astype(self.columns[0].typecode),
                (scan + np.arange(0, (hi - lo) * width, width)[:, None])
                .ravel())
        if self.order != "random":
            self._grid_cache = (live, key, grid)
        return grid

    def _place_block(self, lo: int, hi: int, singles: np.ndarray,
                     live: List[int]) -> None:
        """Place the events of cycles ``[lo, hi)``; ``singles`` are the
        single events stamped in them.

        Each event goes to its cell ``(cycle - lo) * width + proc`` of the
        block's grid; a processor emits at most one event a cycle, so no
        two share a cell.  The grid is then read in each cycle's scan
        order.
        """
        width = self.width
        addr_parts, op_parts, bases, lengths = [], [], [], []
        kept = []
        placed = 0
        for run in self.runs:
            p, first, run_ops, run_addrs, i = run
            j = min(len(run_addrs), hi - first)
            if j > i:
                addr_parts.append(run_addrs[i:j])
                op_parts.append(np.full(j - i, run_ops)
                                if run_ops.__class__ is int else run_ops[i:j])
                # Reference i's cell; each later one is a cycle, a row,
                # further on.
                bases.append((first + i - lo - placed) * width + p)
                lengths.append(j - i)
                placed += j - i
                run[4] = j
            if j < len(run_addrs):
                kept.append(run)
        self.runs[:] = kept
        addr_parts.append(singles[:, 3])
        op_parts.append(singles[:, 2])
        cell = np.concatenate((
            np.repeat(np.array(bases, dtype=np.int64), lengths)
            + np.arange(0, placed * width, width),
            (singles[:, 0] - lo) * width + singles[:, 1]))
        size = (hi - lo) * width
        op_grid = np.empty(size, dtype=np.int8)
        op_grid[cell] = np.concatenate(op_parts)
        addrs = np.concatenate(addr_parts)
        if self.columns[2].typecode == "i" and len(addrs) and (
                addrs.max() > _INT32.max or addrs.min() < _INT32.min):
            self.columns[2] = array("q", np.frombuffer(
                self.columns[2], dtype=np.int32).astype(np.int64).tobytes())
        addr_grid = np.empty(size, dtype=self.columns[2].typecode)
        addr_grid[cell] = addrs
        scan_proc, scan_cell = self._scan_grid(lo, hi, live)
        if len(cell) < len(scan_cell):
            # Some live processor skipped a cycle: read only the cells
            # that hold an event.
            filled = np.zeros(size, dtype=bool)
            filled[cell] = True
            emitted = filled[scan_cell]
            scan_proc, scan_cell = scan_proc[emitted], scan_cell[emitted]
        for column, values in zip(self.columns, (
                scan_proc, op_grid[scan_cell], addr_grid[scan_cell])):
            column.frombytes(memoryview(values).cast("B"))


def _validate_run(op: tuple, proc: int) -> Tuple[RunOps, np.ndarray]:
    """A ``("run", ops, addrs)`` op's opcodes and int64 addresses."""
    _, run_ops, run_addrs = op
    if run_addrs.__class__ is np.ndarray and run_addrs.dtype is _INT64 \
            and run_addrs.ndim == 1:
        addrs = run_addrs
    elif isinstance(run_addrs, range):
        addrs = np.arange(run_addrs.start, run_addrs.stop, run_addrs.step,
                          dtype=np.int64)
    else:
        addrs = np.asarray(run_addrs)
        if addrs.ndim != 1 or (len(addrs) and
                               not np.can_cast(addrs.dtype, np.int64)):
            raise SimulationError(
                f"run addresses from P{proc} must be a range, a list or a "
                f"1-D integer array")
        addrs = addrs.astype(np.int64, copy=False)
    if isinstance(run_ops, (int, np.integer)):
        if run_ops not in (LOAD, STORE):
            raise SimulationError(f"bad run opcode {run_ops!r} from P{proc}")
        return int(run_ops), addrs
    codes = np.asarray(run_ops)
    if codes.shape != addrs.shape:
        raise SimulationError(
            f"run from P{proc} has {codes.size} opcodes for "
            f"{len(addrs)} addresses")
    # LOAD and STORE are 0 and 1: as unsigned, every other int64 is larger.
    if (np.count_nonzero(codes.view(np.uint64) > STORE)
            if codes.dtype is _INT64
            else not ((codes == LOAD) | (codes == STORE)).all()):
        raise SimulationError(f"bad run opcodes from P{proc}: only LOAD "
                              f"and STORE may appear in a run")
    return codes.astype(np.int64, copy=False), addrs


def run_threads(num_procs: int, thread_factory: Callable[[int], ThreadBody],
                *, name: str = "", meta: Optional[dict] = None,
                order: str = "rotate", seed: int = 0) -> Trace:
    """Convenience wrapper: build one thread per processor and run.

    ``thread_factory(tid)`` must return a fresh generator for thread ``tid``.
    """
    machine = Machine(num_procs, order=order, seed=seed)
    threads = [thread_factory(tid) for tid in range(num_procs)]
    return machine.run(threads, name=name, meta=meta)
