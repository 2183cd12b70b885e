"""Property-based tests for the simulated multiprocessor."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from reference_machine import ReferenceMachine, expand_runs, run_outcome
from repro.execution import ops
from repro.execution.scheduler import Machine
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE


@st.composite
def programs(draw):
    """Random straight-line per-processor programs (no blocking)."""
    nproc = draw(st.integers(1, 4))
    bodies = []
    for _ in range(nproc):
        n = draw(st.integers(0, 20))
        body = [(draw(st.sampled_from((LOAD, STORE))),
                 draw(st.integers(0, 31))) for _ in range(n)]
        bodies.append(body)
    return nproc, bodies


def make_thread(body):
    def gen():
        for op, addr in body:
            yield (ops.MEM, op, addr)
    return gen()


@given(programs(), st.sampled_from(("rotate", "fixed", "random")))
@settings(max_examples=100, deadline=None)
def test_machine_emits_every_instruction_exactly_once(program, order):
    nproc, bodies = program
    machine = Machine(nproc, order=order, seed=7)
    trace = machine.run([make_thread(b) for b in bodies])
    assert len(trace) == sum(len(b) for b in bodies)
    streams = trace.per_processor()
    for p, body in enumerate(bodies):
        got = [(op, addr) for _, op, addr in streams.get(p, [])]
        assert got == body, f"P{p} program order broken under {order}"


@given(programs())
@settings(max_examples=60, deadline=None)
def test_cycles_bounded_by_longest_thread_and_total(program):
    nproc, bodies = program
    machine = Machine(nproc)
    trace = machine.run([make_thread(b) for b in bodies])
    total = sum(len(b) for b in bodies)
    longest = max((len(b) for b in bodies), default=0)
    cycles = trace.meta["cycles"]
    # Perfect parallelism bound below, serialization bound above.
    assert longest <= cycles <= max(total, longest) or total == 0


@given(programs(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_random_order_deterministic_per_seed(program, seed):
    nproc, bodies = program
    a = Machine(nproc, order="random", seed=seed).run(
        [make_thread(b) for b in bodies])
    b = Machine(nproc, order="random", seed=seed).run(
        [make_thread(body) for body in bodies])
    assert a.events == b.events


@given(programs())
@settings(max_examples=40, deadline=None)
def test_blocking_on_counter_preserves_order(program):
    """Insert a flag-style dependency: every processor waits for P0's
    first instruction.  The machine must still terminate and order P0's
    first event before all waiters' events."""
    nproc, bodies = program
    if not bodies or not bodies[0]:
        return
    state = {"go": False}

    def leader():
        op, addr = bodies[0][0]
        yield (ops.MEM, op, addr)
        state["go"] = True
        for op, addr in bodies[0][1:]:
            yield (ops.MEM, op, addr)

    def follower(body):
        def gen():
            yield ops.block_until(lambda: state["go"])
            for op, addr in body:
                yield (ops.MEM, op, addr)
        return gen()

    threads = [leader()] + [follower(b) for b in bodies[1:]]
    trace = Machine(nproc).run(threads)
    assert len(trace) == sum(len(b) for b in bodies)
    if len(trace) > 1:
        first_p0 = next(i for i, ev in enumerate(trace.events)
                        if ev[0] == 0)
        others_first = next((i for i, ev in enumerate(trace.events)
                             if ev[0] != 0), None)
        if others_first is not None:
            assert first_p0 < others_first


# ----------------------------------------------------------------------
# differential: Machine == the per-cycle oracle
# ----------------------------------------------------------------------
#: Forms a run's addresses may take.
RUN_FORMS = ("range", "list", "array")


@st.composite
def instructions(draw):
    """One instruction of a differential program.

    ``("mem", op, addr)`` and ``("sync", op, addr, counter)`` emit one
    event; a sync then bumps a shared counter, so a ``("block", counter,
    target)`` elsewhere may wake on it.  ``("bump", counter)`` writes
    shared state without emitting.  ``("run", form, codes, start,
    length)`` is a reference run given as a range, a list or an array.
    """
    kind = draw(st.sampled_from(("mem", "sync", "run", "run", "block",
                                 "bump")))
    if kind == "mem":
        return (kind, draw(st.sampled_from((LOAD, STORE))),
                draw(st.integers(0, 63)))
    if kind == "sync":
        return (kind, draw(st.sampled_from((ACQUIRE, RELEASE))),
                draw(st.integers(64, 67)), draw(st.integers(0, 2)))
    if kind == "block":
        return (kind, draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    if kind == "bump":
        return (kind, draw(st.integers(0, 2)))
    length = draw(st.sampled_from((0, 1, 2, 5, 13, 30)))
    form = draw(st.sampled_from(RUN_FORMS))
    if form == "range" or draw(st.booleans()):
        codes = draw(st.sampled_from((LOAD, STORE)))
    else:
        codes = draw(st.lists(st.sampled_from((LOAD, STORE)),
                              min_size=length, max_size=length))
    return (kind, form, codes, draw(st.integers(0, 63)), length)


def differential_thread(body, counters):
    """A generator running ``body`` against the shared ``counters``."""
    for ins in body:
        kind = ins[0]
        if kind == "mem":
            yield (ops.MEM, ins[1], ins[2])
        elif kind == "sync":
            yield (ops.SYNC, ins[1], ins[2])
            counters[ins[3]] += 1
        elif kind == "block":
            _, counter, target = ins
            yield ops.block_until(
                lambda c=counter, t=target: counters[c] >= t)
        elif kind == "bump":
            counters[ins[1]] += 1
        else:
            _, form, codes, start, length = ins
            addrs = range(start, start + length)
            if form == "list":
                addrs = list(addrs)
            elif form == "array":
                addrs = np.arange(start, start + length)
            if not isinstance(codes, int) and form == "array":
                codes = np.array(codes, dtype=np.int64)
            yield (ops.RUN, codes, addrs)


@given(st.integers(1, 6).flatmap(
           lambda n: st.lists(st.lists(instructions(), max_size=10),
                              min_size=n, max_size=n)),
       st.sampled_from(("rotate", "fixed", "random")),
       st.one_of(st.just(10_000), st.integers(1, 60)))
@settings(max_examples=300, deadline=None)
def test_machine_matches_per_cycle_oracle(bodies, order, max_cycles):
    """Runs, blocks on shared counters, deadlocks and ``max_cycles``: the
    quiet-window ``Machine`` gives the oracle's columns, ``meta`` and
    errors, the oracle seeing each run as single mem yields."""
    outcomes = []
    for machine, wrap in ((Machine, lambda g: g),
                          (ReferenceMachine, expand_runs)):
        counters = [0, 0, 0]
        threads = [wrap(differential_thread(b, counters)) for b in bodies]
        outcomes.append(run_outcome(machine, threads, len(bodies),
                                    order=order, seed=5,
                                    max_cycles=max_cycles))
    assert outcomes[0] == outcomes[1]
