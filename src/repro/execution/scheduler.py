"""Cycle-based cooperative scheduler for simulated parallel programs.

A :class:`Machine` runs one generator *thread* per processor.  Time advances
in cycles; in each cycle every non-blocked processor executes exactly one
event-producing operation (loads, stores, acquires, releases each take one
cycle — the "perfect memory system" of the paper's Table 2 speedup
definition).  Blocked processors consume the cycle without emitting events.

The interleaving produced is deterministic for a given ``order`` policy and
seed, which is the point: the paper switched from execution-driven to
trace-driven simulation precisely so all protocols see the same interleaved
trace (section 5.0).  The machine produces that trace once, appending each
event's processor, opcode and address straight into three typed buffers that
become the trace's columns without a copy; the protocol simulators then
replay it.

Quiet windows
-------------
A thread that yields a reference run (``("run", ops, addrs)``, see
:mod:`repro.execution.ops`) emits one of its references per cycle and is
not resumed until the run is used up.  A cycle is *quiet* when every live,
unblocked thread is partway through a run and every blocked thread's
predicate is false: no generator can be resumed in it, so nothing can
change until the shortest remaining run ends.  Under the ``rotate`` and
``fixed`` orders the machine emits those ``k`` cycles in one NumPy step —
each cycle's events in the order the per-cycle scan would give them, a
rotation of the running threads or the identity — with ``k`` clamped so
``max_cycles`` still fires at the same cycle.  ``random`` draws one
shuffle per cycle and so keeps the per-cycle scan, though a thread in a
run still consumes it without being resumed.

The window relies on one contract: a ``block`` predicate is pure.  It reads
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
from ..trace.columnar import TraceColumns
from ..trace.events import ACQUIRE, LOAD, RELEASE, STORE
from ..trace.trace import Trace
from .ops import BLOCK, MEM, RUN, SYNC

ThreadBody = Iterator  # a generator yielding ops

#: A validated run's opcodes: one opcode for every reference, or one each.
RunOps = Union[int, np.ndarray]


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
        # Each thread's current run: opcodes, addresses, the index of its
        # next reference and how many references it has left.
        run_ops: List[RunOps] = [LOAD] * count
        run_addrs: List[Optional[np.ndarray]] = [None] * count
        run_next = [0] * count
        run_left = [0] * count
        in_run = 0  # threads with references left in a run
        # One int64 buffer per trace column: 24 bytes per event, adopted
        # by the trace's columns below without a copy.
        procs, ops, addrs = array("q"), array("q"), array("q")
        emit_proc, emit_op, emit_addr = procs.append, ops.append, addrs.append
        order = self.order
        rng = random.Random(self.seed)
        cycles = 0
        live = list(range(count))

        while live:
            if cycles >= max_cycles:
                raise SimulationError(
                    f"execution exceeded {max_cycles} cycles "
                    f"({len(procs)} events so far)")
            # A quiet cycle (see the module docstring): emit every cycle
            # up to the end of the shortest run at once.
            if in_run and order != "random" and all(
                    run_left[p] or (blocked[p] is not None
                                    and not blocked[p]()) for p in live):
                running = [p for p in live if run_left[p]]
                k = min(min(run_left[p] for p in running),
                        max_cycles - cycles)
                first = cycles if order == "rotate" else None
                for column, values in zip(
                        (procs, ops, addrs),
                        _quiet_window(live, running, first, k, run_ops,
                                      run_addrs, run_next)):
                    column.frombytes(memoryview(values).cast("B"))
                for p in running:
                    run_next[p] += k
                    run_left[p] -= k
                    if not run_left[p]:
                        in_run -= 1
                cycles += k
                continue

            nlive = len(live)
            if order == "fixed" or nlive == 1:
                scan = live
            elif order == "rotate":
                first = cycles % nlive
                scan = live[first:] + live[:first]
            else:
                scan = list(live)
                rng.shuffle(scan)
            progressed = finished = False
            for p in scan:
                predicate = blocked[p]
                if predicate is not None:
                    # A blocked processor re-evaluates its predicate; if
                    # still false the cycle is spent waiting.
                    if not predicate():
                        continue
                    blocked[p] = None
                if not run_left[p]:
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
                            emit_proc(p)
                            emit_op(memop)
                            emit_addr(addr)
                            progressed = True
                            break
                        if kind == SYNC:
                            _, syncop, addr = op
                            if syncop not in (ACQUIRE, RELEASE):
                                raise SimulationError(
                                    f"bad sync op {op!r} from P{p}")
                            emit_proc(p)
                            emit_op(syncop)
                            emit_addr(addr)
                            progressed = True
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
                            run_ops[p], run_addrs[p] = run_op, run_addr
                            run_next[p], run_left[p] = 0, len(run_addr)
                            in_run += 1
                            break
                        raise SimulationError(
                            f"unknown op {op!r} from P{p}")
                    if not run_left[p]:
                        continue
                # The thread is in a run: emit its next reference.
                i = run_next[p]
                run_op = run_ops[p]
                emit_proc(p)
                emit_op(run_op if run_op.__class__ is int else run_op.item(i))
                emit_addr(run_addrs[p].item(i))
                run_next[p] = i + 1
                run_left[p] -= 1
                if not run_left[p]:
                    in_run -= 1
                progressed = True
            if finished:
                live = [p for p in live if not done[p]]
            # A cycle in which nothing ran and nobody is left (the scan that
            # merely discovered termination) costs no simulated time.
            if progressed or live:
                cycles += 1
            if live and not progressed and not finished:
                # Every live thread ended the cycle blocked.  One may have
                # unblocked, run non-emitting code that satisfied someone
                # else's predicate (e.g. a flag set) and re-blocked, all
                # within this cycle.  Re-evaluate before declaring
                # deadlock: only a cycle where every live thread is blocked
                # on a *currently false* predicate is stuck.
                if not any(blocked[p]() for p in live):
                    raise DeadlockError(
                        f"deadlock at cycle {cycles}: processors {live} all "
                        f"blocked ({len(procs)} events emitted)")

        full_meta = dict(meta or {})
        full_meta.setdefault("cycles", cycles)
        full_meta.setdefault("num_procs", self.num_procs)
        trace_columns = TraceColumns(
            *(np.frombuffer(column, dtype=np.int64)
              for column in (procs, ops, addrs)))
        return Trace(trace_columns, self.num_procs, name=name,
                     meta=full_meta, validate=False)


def _validate_run(op: tuple, proc: int) -> Tuple[RunOps, np.ndarray]:
    """A ``("run", ops, addrs)`` op's opcodes and int64 addresses."""
    _, run_ops, run_addrs = op
    if isinstance(run_addrs, range):
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
    if not ((codes == LOAD) | (codes == STORE)).all():
        raise SimulationError(f"bad run opcodes from P{proc}: only LOAD "
                              f"and STORE may appear in a run")
    return codes.astype(np.int64, copy=False), addrs


def _quiet_window(live: List[int], running: List[int], first: Optional[int],
                  k: int, run_ops: List[RunOps],
                  run_addrs: List[Optional[np.ndarray]],
                  run_next: List[int]) -> Tuple[np.ndarray, ...]:
    """The ``(proc, op, addr)`` columns of ``k`` quiet cycles.

    ``running`` lists the threads in a run, in ``live`` order; each emits
    its next ``k`` references, one per cycle.  ``first`` is the window's
    first cycle under ``rotate`` and None under ``fixed``.
    """
    width = len(running)
    procs = np.array(running, dtype=np.int64)
    ops = np.empty((width, k), dtype=np.int64)
    addrs = np.empty((width, k), dtype=np.int64)
    for j, p in enumerate(running):
        i = run_next[p]
        addrs[j] = run_addrs[p][i:i + k]
        run_op = run_ops[p]
        ops[j] = run_op if run_op.__class__ is int else run_op[i:i + k]
    if first is None or width == 1:
        return np.tile(procs, k), ops.T.ravel(), addrs.T.ravel()
    # Cycle c scans live[c % len(live):] + live[:c % len(live)]; its
    # running threads come out as a rotation of ``running`` that starts
    # at the first one at or after that scan position.
    position = np.array([live.index(p) for p in running])
    scan_start = np.arange(first, first + k) % len(live)
    start = np.searchsorted(position, scan_start)
    slot = (start[:, None] + np.arange(width)) % width
    return (procs[slot].ravel(),
            np.take_along_axis(ops.T, slot, 1).ravel(),
            np.take_along_axis(addrs.T, slot, 1).ravel())


def run_threads(num_procs: int, thread_factory: Callable[[int], ThreadBody],
                *, name: str = "", meta: Optional[dict] = None,
                order: str = "rotate", seed: int = 0) -> Trace:
    """Convenience wrapper: build one thread per processor and run.

    ``thread_factory(tid)`` must return a fresh generator for thread ``tid``.
    """
    machine = Machine(num_procs, order=order, seed=seed)
    threads = [thread_factory(tid) for tid in range(num_procs)]
    return machine.run(threads, name=name, meta=meta)
