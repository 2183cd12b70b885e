"""Unit tests for the simulated multiprocessor scheduler."""

from unittest import mock

import numpy as np
import pytest

from reference_machine import ReferenceMachine, expand_runs, run_outcome
from repro.errors import DeadlockError, SimulationError
from repro.execution import ops, scheduler
from repro.execution.scheduler import FLUSH_EVENTS, Machine, run_threads
from repro.mem.allocator import Allocator
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.workloads import FFT, LU, MP3D, SOR, Jacobi, MatMul, Water
from repro.workloads.registry import make_workload


def emitter(proc_word, count):
    def gen():
        for i in range(count):
            yield ops.load(proc_word + i)
    return gen()


class TestBasicExecution:
    def test_single_thread(self):
        m = Machine(1)
        t = m.run([emitter(0, 3)], name="one")
        assert t.events == [(0, LOAD, 0), (0, LOAD, 1), (0, LOAD, 2)]
        assert t.meta["cycles"] == 3

    def test_parallel_threads_interleave(self):
        m = Machine(2, order="fixed")
        t = m.run([emitter(0, 2), emitter(10, 2)])
        assert t.events == [(0, LOAD, 0), (1, LOAD, 10),
                            (0, LOAD, 1), (1, LOAD, 11)]
        # two 2-event threads run in 2 cycles on 2 processors
        assert t.meta["cycles"] == 2

    def test_rotate_order_is_fair(self):
        m = Machine(2, order="rotate")
        t = m.run([emitter(0, 2), emitter(10, 2)])
        procs = [ev[0] for ev in t.events]
        assert procs == [0, 1, 1, 0]

    def test_random_order_deterministic_by_seed(self):
        a = Machine(3, order="random", seed=1).run(
            [emitter(0, 4), emitter(10, 4), emitter(20, 4)])
        b = Machine(3, order="random", seed=1).run(
            [emitter(0, 4), emitter(10, 4), emitter(20, 4)])
        assert a.events == b.events

    def test_fewer_threads_than_procs(self):
        m = Machine(4)
        t = m.run([emitter(0, 2)])
        assert len(t) == 2
        assert t.num_procs == 4

    def test_too_many_threads_rejected(self):
        with pytest.raises(SimulationError):
            Machine(1).run([emitter(0, 1), emitter(1, 1)])

    def test_unequal_lengths(self):
        m = Machine(2, order="fixed")
        t = m.run([emitter(0, 1), emitter(10, 3)])
        assert len(t) == 4


class TestBlocking:
    def test_block_until_waits(self):
        state = {"go": False}

        def waiter():
            yield ops.block_until(lambda: state["go"])
            yield ops.load(1)

        def setter():
            yield ops.load(0)
            state["go"] = True
            yield ops.load(2)

        t = Machine(2, order="fixed").run([waiter(), setter()])
        addrs = [a for _, _, a in t.events]
        assert addrs.index(1) > addrs.index(0)

    def test_true_predicate_costs_nothing(self):
        def t0():
            yield ops.block_until(lambda: True)
            yield ops.load(0)

        t = Machine(1).run([t0()])
        assert t.meta["cycles"] == 1

    def test_deadlock_detected(self):
        def stuck():
            yield ops.block_until(lambda: False)

        with pytest.raises(DeadlockError):
            Machine(1).run([stuck()])

    def test_mutual_wait_deadlock(self):
        a_done = {"v": False}
        b_done = {"v": False}

        def a():
            yield ops.block_until(lambda: b_done["v"])
            a_done["v"] = True
            yield ops.load(0)

        def b():
            yield ops.block_until(lambda: a_done["v"])
            b_done["v"] = True
            yield ops.load(1)

        with pytest.raises(DeadlockError):
            Machine(2).run([a(), b()])

    def test_unblock_then_reblock_is_not_deadlock(self):
        """Regression: a thread may satisfy another's predicate with
        non-emitting code and immediately re-block; that cycle must not be
        reported as a deadlock."""
        stage = {"n": 0}

        def a():
            yield ops.load(0)
            stage["n"] = 1          # runs on the resume after load(0)
            yield ops.block_until(lambda: stage["n"] == 2)
            yield ops.load(1)

        def b():
            yield ops.block_until(lambda: stage["n"] == 1)
            stage["n"] = 2
            yield ops.load(2)

        t = Machine(2, order="fixed").run([a(), b()])
        assert len(t) == 3


class TestValidation:
    def test_malformed_op_rejected(self):
        def bad():
            yield ("bogus", 1)

        with pytest.raises(SimulationError):
            Machine(1).run([bad()])

    def test_bad_mem_opcode_rejected(self):
        def bad():
            yield (ops.MEM, 9, 0)

        with pytest.raises(SimulationError):
            Machine(1).run([bad()])

    def test_bad_sync_opcode_rejected(self):
        def bad():
            yield (ops.SYNC, 0, 0)

        with pytest.raises(SimulationError):
            Machine(1).run([bad()])

    def test_max_cycles_guard(self):
        def forever():
            while True:
                yield ops.load(0)

        with pytest.raises(SimulationError):
            Machine(1).run([forever()], max_cycles=100)

    def test_bad_order_policy(self):
        with pytest.raises(SimulationError):
            Machine(1, order="zigzag")

    def test_nonpositive_procs(self):
        with pytest.raises(SimulationError):
            Machine(0)


class TestRunThreads:
    def test_factory_wrapper(self):
        def factory(tid):
            def gen():
                yield ops.store(tid)
            return gen()

        t = run_threads(3, factory, name="f")
        assert sorted(a for _, _, a in t.events) == [0, 1, 2]
        assert all(op == STORE for _, op, _ in t.events)
        assert t.name == "f"

    def test_meta_merged(self):
        def factory(tid):
            def gen():
                yield ops.load(0)
            return gen()

        t = run_threads(1, factory, meta={"x": 1})
        assert t.meta["x"] == 1
        assert "cycles" in t.meta


def run_both(make_threads, num_procs, **kwargs):
    """The outcomes of ``Machine`` and of the per-cycle oracle, each over
    fresh ``make_threads()``."""
    return [run_outcome(machine, [wrap(g) for g in make_threads()],
                        num_procs, seed=3, **kwargs)
            for machine, wrap in ((Machine, lambda g: g),
                                  (ReferenceMachine, expand_runs))]


class TestRuns:
    def test_run_matches_single_yields(self):
        def threads():
            def gen(base):
                yield (ops.RUN, LOAD, range(base, base + 5))
                yield ops.store(base)
                yield (ops.RUN, [LOAD, STORE, LOAD], [base, base + 1, base])
                yield (ops.RUN, STORE, np.arange(base, base + 4))
            return [gen(0), gen(100), gen(200)]

        for order in ("rotate", "fixed", "random"):
            new, ref = run_both(threads, 3, order=order)
            assert new == ref

    @pytest.mark.parametrize("codes", [ACQUIRE, 9, [LOAD, RELEASE]])
    def test_non_data_opcode_rejected(self, codes):
        def bad():
            yield (ops.RUN, codes, [0, 1])

        with pytest.raises(SimulationError, match="opcode"):
            Machine(1).run([bad()])

    def test_length_mismatch_rejected(self):
        def bad():
            yield (ops.RUN, [LOAD, STORE, LOAD], range(2))

        with pytest.raises(SimulationError, match="3 opcodes for 2"):
            Machine(1).run([bad()])

    @pytest.mark.parametrize("addrs", [np.zeros((2, 2), dtype=np.int64),
                                       [0.5, 1.5], np.array([1.0, 2.0]),
                                       np.array([2**63], dtype=np.uint64)])
    def test_non_integer_addresses_rejected(self, addrs):
        def bad():
            yield (ops.RUN, LOAD, addrs)

        with pytest.raises(SimulationError, match="run addresses"):
            Machine(1).run([bad()])

    @pytest.mark.parametrize("empty", [range(0), [], np.arange(0)])
    def test_empty_run_costs_no_cycle(self, empty):
        def gen():
            yield (ops.RUN, LOAD, empty)
            yield ops.load(7)
            yield (ops.RUN, [], empty)

        t = Machine(1).run([gen()])
        assert t.events == [(0, LOAD, 7)]
        assert t.meta["cycles"] == 1

    def test_run_is_not_resumed_until_used_up(self):
        resumed, seen = [], []

        def gen():
            yield (ops.RUN, LOAD, range(4))   # cycles 0-3
            resumed.append(True)              # cycle 4

        def watcher():
            for _ in range(5):
                yield ops.load(100)
                seen.append(bool(resumed))    # cycles 1-5

        Machine(2, order="fixed").run([gen(), watcher()])
        assert seen == [False, False, False, True, True]

    @pytest.mark.parametrize("order", ["rotate", "fixed", "random"])
    @pytest.mark.parametrize("max_cycles", [1, 5, 37, 40])
    def test_max_cycles_inside_a_quiet_window(self, order, max_cycles):
        def threads():
            def gen(base, length):
                yield (ops.RUN, LOAD, range(base, base + length))
                yield ops.store(base)
            return [gen(0, 60), gen(100, 45), gen(200, 80)]

        new, ref = run_both(threads, 3, order=order, max_cycles=max_cycles)
        assert new == ref
        assert new[0] is SimulationError
        assert f"exceeded {max_cycles} cycles" in new[1]

    @pytest.mark.parametrize("order", ["rotate", "fixed", "random"])
    def test_quiet_window_with_blocked_threads(self, order):
        """Windows whose running threads sit between blocked ones: the
        rotation is over the live threads, not the running ones."""
        def threads():
            flag = {"set": 0}

            def producer(base, length):
                yield (ops.RUN, STORE, range(base, base + length))
                yield ops.release_event(99)
                flag["set"] += 1

            def consumer(base):
                yield (ops.RUN, LOAD, range(base, base + 7))
                yield ops.block_until(lambda: flag["set"] == 2)
                yield ops.acquire_event(99)
                yield (ops.RUN, LOAD, range(base, base + 9))

            return [consumer(100), producer(0, 30), consumer(200),
                    producer(50, 41), consumer(300)]

        new, ref = run_both(threads, 5, order=order)
        assert new == ref
        assert len(new[0][0]) == 30 + 41 + 2 + 3 * (7 + 1 + 9)

class TestFlushBlocks:
    """Events are placed in blocks of ``FLUSH_EVENTS // P`` cycles and
    whenever a thread finishes; placement must not depend on where a
    block boundary falls."""

    @pytest.mark.parametrize("order", ["rotate", "fixed", "random"])
    def test_program_longer_than_a_flush_block(self, order):
        block = FLUSH_EVENTS // 4

        def threads():
            def gen(base, length):
                for k in range(3):
                    yield (ops.RUN, LOAD, range(base, base + length + k))
                    for i in range(block // 3):
                        yield ops.store(base + i % 7)
                    yield ops.acquire_event(999)
                    yield ops.release_event(999)
            return [gen(0, block // 2), gen(10_000, block + 3),
                    gen(20_000, 3 * block - 1), gen(30_000, 5)]

        new, ref = run_both(threads, 4, order=order)
        assert new == ref
        assert new[1]["cycles"] > 3 * block

    def test_blocks_stay_cache_sized(self):
        """A run much longer than a block is placed a block at a time, so
        placement never builds arrays for the whole run."""
        spans = []
        place_block = scheduler._Stamped._place_block

        def spy(self, lo, hi, singles, live):
            spans.append(hi - lo)
            return place_block(self, lo, hi, singles, live)

        def gen(base):
            yield (ops.RUN, LOAD, range(base, base + 5 * FLUSH_EVENTS))

        with mock.patch.object(scheduler._Stamped, "_place_block", spy):
            trace = Machine(4).run([gen(i << 20) for i in range(4)])
        assert len(trace) == 4 * 5 * FLUSH_EVENTS
        assert max(spans) == FLUSH_EVENTS // 4
        assert len(spans) > 5 * 4

    @pytest.mark.parametrize("order", ["rotate", "fixed", "random"])
    def test_run_longer_than_a_block(self, order):
        def threads():
            def gen(base, length):
                yield ops.load(base)
                yield (ops.RUN, [LOAD, STORE] * length,
                       np.arange(base, base + 2 * length))
                yield ops.store(base)
            return [gen(0, 37), gen(100, 11), gen(200, 23)]

        with mock.patch.object(scheduler, "FLUSH_EVENTS", 12):  # 4 cycles
            new, ref = run_both(threads, 3, order=order)
        assert new == ref

    def test_thread_finishing_mid_block_under_rotate(self):
        """Slots rotate over the live list, which shrinks mid-block while
        other threads are partway through runs."""
        def threads():
            def gen(base, lengths):
                for length in lengths:
                    yield (ops.RUN, STORE, range(base, base + length))
                    yield ops.load(base)
            return [gen(0, [3]), gen(100, [9, 14]), gen(200, [2, 2, 2]),
                    gen(300, [30]), gen(400, [7, 1])]

        for flush_events in (FLUSH_EVENTS, 5 * 5, 5 * 8):
            with mock.patch.object(scheduler, "FLUSH_EVENTS", flush_events):
                new, ref = run_both(threads, 5, order="rotate")
            assert new == ref

    @pytest.mark.parametrize("order", ["rotate", "fixed", "random"])
    @pytest.mark.parametrize("max_cycles", [6, 23, 49])
    def test_max_cycles_inside_a_run_spanning_a_flush(self, order,
                                                       max_cycles):
        def threads():
            def gen(base, length):
                yield ops.store(base)
                yield (ops.RUN, LOAD, range(base, base + length))
                yield ops.store(base)
            return [gen(0, 60), gen(100, 8), gen(200, 55)]

        with mock.patch.object(scheduler, "FLUSH_EVENTS", 3 * 4):
            new, ref = run_both(threads, 3, order=order,
                                max_cycles=max_cycles)
        assert new == ref
        assert new[0] is SimulationError
        assert f"exceeded {max_cycles} cycles" in new[1]
        assert "events so far" in new[1]


class TestAgainstReference:
    """Every workload's threads yield runs; expanded to single mem
    yields, the per-cycle oracle must produce the same trace."""

    @pytest.mark.parametrize("order", ["rotate", "fixed", "random"])
    @pytest.mark.parametrize("workload", [
        LU(12, num_procs=4), LU(9, elem_words=1, num_procs=3),
        Jacobi(8, iterations=3, num_procs=4),
        Jacobi(6, iterations=2, padded_barrier=True, num_procs=9),
        Water(7, time_steps=2, num_procs=3),
        MP3D(24, num_cells=5, time_steps=3, collision_rate=0.5,
             num_procs=4),
        MatMul(5, elem_words=2, num_procs=3), FFT(16, num_procs=4),
        SOR(6, iterations=2, num_procs=9)])
    def test_workload(self, workload, order):
        def threads():
            return workload.build_threads(Allocator())

        new, ref = run_both(threads, workload.num_procs, order=order)
        assert new == ref

    @pytest.mark.parametrize("order", ["fixed", "random"])
    @pytest.mark.parametrize("name", ["WATER16", "MP3D200"])
    def test_named_workload_under_other_orders(self, name, order):
        """The pinned traces cover ``rotate``; the ablations also
        generate Water and MP3D under ``fixed`` and ``random``."""
        workload = make_workload(name)

        def threads():
            return workload.build_threads(Allocator())

        new, ref = run_both(threads, workload.num_procs, order=order)
        assert new == ref
