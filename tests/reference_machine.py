"""The per-cycle scheduler loop, kept as a test oracle.

:class:`ReferenceMachine` is :class:`repro.execution.scheduler.Machine` as
it was before quiet windows: it scans the live processors every cycle and
advances each by at most one event through ``_step``.  It knows no
``("run", ops, addrs)`` op; :func:`expand_runs` hands it a thread's runs as
the single ``("mem", op, addr)`` yields they stand for, which is the
contract the fast loop must keep.  The differential tests in
``tests/test_scheduler.py`` and ``tests/test_property_execution.py`` check
columns, ``meta`` and errors against it.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import DeadlockError, SimulationError
from repro.execution.ops import BLOCK, MEM, RUN, SYNC
from repro.trace.columnar import TraceColumns
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace

ThreadBody = Iterator  # a generator yielding ops


class _ThreadState:
    __slots__ = ("gen", "blocked_on", "done", "events_executed")

    def __init__(self, gen: ThreadBody):
        self.gen = gen
        self.blocked_on: Optional[Callable[[], bool]] = None
        self.done = False
        self.events_executed = 0


class ReferenceMachine:
    """The per-cycle ``Machine``: one ``_step`` per processor per cycle.

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
        states: Dict[int, _ThreadState] = {
            i: _ThreadState(gen) for i, gen in enumerate(threads)}
        # One int64 buffer per trace column: 24 bytes per event, adopted
        # by the trace's columns below without a copy.
        procs, ops, addrs = array("q"), array("q"), array("q")
        rng = random.Random(self.seed)
        cycles = 0
        live = [i for i in states]

        while live:
            if cycles >= max_cycles:
                raise SimulationError(
                    f"execution exceeded {max_cycles} cycles "
                    f"({len(procs)} events so far)")
            scan = self._scan_order(live, cycles, rng)
            progressed = False
            all_blocked = True
            for proc in scan:
                state = states[proc]
                if state.done:
                    continue
                emitted = self._step(proc, state, procs, ops, addrs)
                if emitted:
                    progressed = True
                if state.blocked_on is None:
                    all_blocked = False
            live = [i for i in live if not states[i].done]
            # A cycle in which nothing ran and nobody is left (the scan that
            # merely discovered termination) costs no simulated time.
            if progressed or live:
                cycles += 1
            if live and not progressed and all_blocked:
                # A thread may have unblocked, run non-emitting code that
                # satisfied someone else's predicate (e.g. a flag set) and
                # re-blocked, all within this cycle.  Re-evaluate before
                # declaring deadlock: only a cycle where every live thread
                # is blocked on a *currently false* predicate is stuck.
                if not any(states[i].blocked_on is not None
                           and states[i].blocked_on() for i in live):
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

    # ------------------------------------------------------------------
    def _scan_order(self, live: List[int], cycle: int,
                    rng: random.Random) -> List[int]:
        if self.order == "fixed" or len(live) == 1:
            return live
        if self.order == "rotate":
            k = cycle % len(live)
            return live[k:] + live[:k]
        shuffled = list(live)
        rng.shuffle(shuffled)
        return shuffled

    def _step(self, proc: int, state: _ThreadState,
              procs: array, ops: array, addrs: array) -> bool:
        """Advance one processor by at most one event; True if one was emitted.

        An emitted event is appended to the three column buffers.
        """
        # A blocked processor re-evaluates its predicate; if still false the
        # cycle is spent waiting.
        if state.blocked_on is not None:
            if not state.blocked_on():
                return False
            state.blocked_on = None
        while True:
            try:
                op = next(state.gen)
            except StopIteration:
                state.done = True
                return False
            kind = op[0]
            if kind == MEM:
                _, memop, addr = op
                if memop not in (LOAD, STORE):
                    raise SimulationError(f"bad mem op {op!r} from P{proc}")
                procs.append(proc)
                ops.append(memop)
                addrs.append(addr)
                state.events_executed += 1
                return True
            if kind == SYNC:
                _, syncop, addr = op
                if syncop not in (ACQUIRE, RELEASE):
                    raise SimulationError(f"bad sync op {op!r} from P{proc}")
                procs.append(proc)
                ops.append(syncop)
                addrs.append(addr)
                state.events_executed += 1
                return True
            if kind == BLOCK:
                predicate = op[1]
                if predicate():
                    # Not actually blocked: fall through and pull the next
                    # op within the same cycle (blocking is free when the
                    # condition already holds).
                    continue
                state.blocked_on = predicate
                return False
            raise SimulationError(f"unknown op {op!r} from P{proc}")


def expand_runs(gen: Iterator) -> Iterator:
    """``gen`` with each run op replaced by its single mem yields."""
    for op in gen:
        if op[0] != RUN:
            yield op
            continue
        _, codes, addrs = op
        addrs = [int(a) for a in addrs]
        if np.ndim(codes) == 0:
            codes = [codes] * len(addrs)
        for code, addr in zip(codes, addrs):
            yield (MEM, int(code), addr)


def run_outcome(machine_cls, threads, num_procs, *, order="rotate", seed=0,
                max_cycles=200_000_000):
    """What one run of ``threads`` gives: its columns (as lists) and
    ``meta``, or the type and message of the ``SimulationError`` it
    raised."""
    try:
        trace = machine_cls(num_procs, order=order, seed=seed).run(
            threads, max_cycles=max_cycles)
    except SimulationError as exc:
        return type(exc), str(exc)
    cols = trace.columns()
    return ([cols.proc.tolist(), cols.op.tolist(), cols.addr.tolist()],
            trace.meta)
