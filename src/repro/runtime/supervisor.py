"""Supervised fan-out of independent grid cells over fork workers.

``SweepEngine.run_grid`` used to hand the grid to a bare ``pool.map``: one
crashed worker, one hung cell or one raised exception aborted the whole
sweep and discarded every completed cell.  :class:`Supervisor` replaces it
with per-cell task tracking:

* each worker is a dedicated ``fork`` process driven over its own duplex
  pipe (:class:`_ForkEndpoint`), so the supervisor always knows *which*
  cell a worker is running and since when;
* the event loop multiplexes reply pipes **and** process sentinels via
  :func:`multiprocessing.connection.wait` — a dead worker is noticed
  immediately, not at ``join`` time;
* a per-cell stall timeout kills hung workers and reschedules their cell;
* what follows a failure — retry after backoff, one serial in-process
  fallback attempt, or aborting — is decided by
  :mod:`repro.runtime.policy`; the supervisor only carries it out.  A
  worker the kernel OOM killer SIGKILLs is classified ``oom`` and takes
  the same path as a crash;
* only when the serial fallback also fails does the supervisor raise
  :class:`~repro.errors.CellFailedError`, carrying the cell, its attempt
  history and the partial results of every completed cell.

Workers inherit their runner (and any fault plan) through module globals
at fork time, so nothing is pickled — the same zero-copy trick the old
pool used.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import multiprocessing.connection
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import CellFailedError, SweepInterrupted
from ..obs import (apply_trace_context, get_recorder, trace_context,
                   worker_begin)
from . import policy, signals
from .faults import FaultPlan
from .policy import classify_exitcode, task_attr, task_label
from .resources import peak_rss_bytes
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy

logger = logging.getLogger(__name__)

# Fork-inherited worker state (set in the parent just before spawning).
_WORKER_RUNNER: Optional[Callable[[Any], Any]] = None
_WORKER_FAULTS: Optional[FaultPlan] = None
_WORKER_HEARTBEAT: Optional[float] = None


class EndpointLostError(Exception):
    """A worker's reply pipe failed (EOF, torn or garbled frame).

    Internal control flow within the supervisor — never user-facing.
    ``garbled`` distinguishes a *corrupted* pipe (bytes arrived but could
    not be decoded: the worker must be killed, its pipe can never become
    readable again) from a plain EOF (the process sentinel stays the
    authority on death).
    """

    def __init__(self, message: str, *, garbled: bool = False):
        super().__init__(message)
        self.garbled = garbled


# ----------------------------------------------------------------------
# fork worker body (inherited through module globals, never pickled)
# ----------------------------------------------------------------------
def _heartbeat_loop(conn, send_lock, current, interval) -> None:
    """Daemon thread: periodically report the worker's progress counter.

    Sends ``("hb", idx, progress, cell)`` for the task in flight.  The
    supervisor compares successive ``progress`` samples: a *slow* cell
    keeps advancing the counter (the hot loops tick it every
    :data:`~repro.runtime.signals.HEARTBEAT_CHUNK` events) while a *hung*
    one freezes it — which is exactly the distinction the stall watchdog
    needs.  Sends share ``send_lock`` with result replies so the two
    never interleave on the pipe.
    """
    while True:
        time.sleep(interval)
        cur = current[0]
        if cur is None:
            continue
        idx, task = cur
        try:
            with send_lock:
                conn.send(("hb", idx, signals.progress_count(),
                           task_attr(task)))
        except Exception:
            return  # pipe gone: the worker is exiting


def _worker_main(conn) -> None:
    """Worker loop: receive ``("run", idx, task, attempt, ctx)``, send results.

    Replies ``(idx, ok, payload, records)`` where ``records`` is the
    worker's buffered telemetry (``None`` when telemetry is off) — the
    child recorder installed by :func:`repro.obs.worker_begin` is drained
    after every task so spans and metrics ride the existing reply pipe
    back into the parent stream.  A ``("stop",)`` message (or a closed
    pipe) ends the loop.

    Workers drop the parent's inherited shutdown flag and ignore SIGINT
    (:func:`repro.runtime.signals.reset_in_child`): on Ctrl-C the parent
    alone coordinates the wind-down over the pipes.  When the parent
    configured a heartbeat interval, a daemon thread reports liveness
    between replies (see :func:`_heartbeat_loop`).
    """
    runner = _WORKER_RUNNER
    faults = _WORKER_FAULTS
    signals.reset_in_child()
    recorder = worker_begin()
    send_lock = threading.Lock()
    current: List = [None]  # [(idx, task)] while a task is in flight
    if _WORKER_HEARTBEAT is not None:
        threading.Thread(target=_heartbeat_loop,
                         args=(conn, send_lock, current, _WORKER_HEARTBEAT),
                         name="repro-heartbeat", daemon=True).start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            return
        _, idx, task, attempt, ctx = msg
        current[0] = (idx, task)
        try:
            if faults is not None:
                faults.apply_worker(task, attempt, idx)
            with apply_trace_context(ctx):
                result = runner(task)
            ok, payload = True, result
        except BaseException as exc:
            ok, payload = False, policy.classify_exception(exc)
        current[0] = None
        records = None
        if recorder is not None:
            recorder.metric("worker.ru_maxrss_kb",
                            peak_rss_bytes() // 1024, unit="kb",
                            cell=task_attr(task))
            records = recorder.drain()
        try:
            with send_lock:
                conn.send((idx, ok, payload, records))
        except Exception:
            # The result (or error) could not cross the pipe; report a
            # sendable failure so the supervisor can retry the cell.
            try:
                with send_lock:
                    conn.send((idx, False,
                               {"error": "worker could not send result for "
                                         f"task {idx}", "kind": "error"},
                               None))
            except Exception:
                return


class _ForkEndpoint:
    """One supervised fork worker and its pipe.

    Scheduling state (``current``, ``deadline``, ``last_progress``) lives
    here so the stall watchdog can read it per worker.
    """

    __slots__ = ("process", "conn", "current", "deadline", "last_progress",
                 "_shutdown_token")

    def __init__(self, ctx, wid: int):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                   name=f"repro-supervised-{wid}",
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.current = None
        self.deadline: Optional[float] = None
        #: Last heartbeat progress sample for the task in flight (None
        #: until the first heartbeat after an assignment).
        self.last_progress: Optional[int] = None
        # Forced teardown (second Ctrl-C) runs os._exit, which skips the
        # multiprocessing atexit reaping of daemon children — register so
        # the coordinator can kill this worker directly.
        coord = signals.get_shutdown()
        self._shutdown_token = (coord.register_process(self.process)
                                if coord is not None else None)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def assign(self, att, timeout: Optional[float]) -> None:
        att.attempts += 1
        self.current = att
        self.last_progress = None
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        try:
            # ``ctx`` carries the supervisor's ambient span ids (None when
            # tracing is off) so worker-side spans parent under the sweep
            # span.
            self.conn.send(("run", att.idx, att.task, att.attempts,
                            trace_context()))
        except (OSError, ValueError) as exc:
            raise EndpointLostError(f"assign failed: {exc}") from None

    def stop(self, *, kill: bool = False) -> None:
        if kill and self.process.is_alive():
            self.process.terminate()
        else:
            try:
                self.conn.send(("stop",))
            except Exception:
                pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=2.0)
        self.conn.close()
        if self._shutdown_token is not None:
            coord = signals.get_shutdown()
            if coord is not None:
                coord.unregister_process(self._shutdown_token)

    def recv(self):
        """One message: ``("hb", idx, progress, cell)`` or ``(idx, ok,
        payload, records)``.  Raises :class:`EndpointLostError` when the
        pipe is gone."""
        try:
            msg = self.conn.recv()
        except (EOFError, OSError) as exc:
            # Pipe died mid-message: the process sentinel stays the
            # authority on whether the worker is actually dead.
            raise EndpointLostError(f"reply pipe closed: {exc!r}") from None
        except Exception as exc:
            # Bytes arrived but could not be unpickled — a torn or
            # garbled frame.  The pipe is unrecoverable (framing is
            # lost), so the worker must be killed and its cell re-run.
            raise EndpointLostError(f"garbled worker reply: {exc!r}",
                                    garbled=True) from None
        return msg

    def death(self, lost: Optional[EndpointLostError]):
        """``(fail_kind, description)`` for the attempt history."""
        if lost is not None and self.process.is_alive():
            return ("crash", f"worker reply channel lost ({lost})")
        return classify_exitcode(self.process.exitcode)


class _Attempt:
    """Mutable per-cell scheduling record."""

    __slots__ = ("idx", "task", "attempts", "not_before", "history")

    def __init__(self, idx: int, task):
        self.idx = idx
        self.task = task
        self.attempts = 0          # attempts consumed so far
        self.not_before = 0.0      # monotonic time gating the next attempt
        self.history: List[dict] = []


class Supervisor:
    """Run independent tasks with crash/hang detection, retries and
    graceful degradation to serial execution.

    Parameters
    ----------
    runner:
        ``runner(task) -> result``.  Must be inheritable by fork (workers
        receive it through a module global, never pickled).
    jobs:
        Worker process count; ``1`` (or platforms without ``fork``)
        spawns no workers — everything runs serially in-process.
    retry:
        The :class:`RetryPolicy` bounding attempts per cell and pacing the
        backoff between them.
    timeout:
        **Stall** seconds before a worker is presumed hung.  This is not
        a wall-clock cap on the cell: workers heartbeat their progress
        counter (ticked by the hot loops every
        :data:`~repro.runtime.signals.HEARTBEAT_CHUNK` events), and a
        worker is killed — and its task rescheduled — only when the
        counter stops advancing for ``timeout`` seconds.  A slow but
        alive paper-scale cell therefore never trips the watchdog, while
        a genuinely hung worker still dies within ``timeout`` of its
        last progress.  ``None`` disables stall detection entirely.
    fault_plan:
        Optional deterministic :class:`FaultPlan` (tests only).
    """

    #: Upper bound on one event-loop wait (keeps deadline checks timely,
    #: and bounds how stale the shutdown-flag poll can get).
    POLL_INTERVAL = 0.25
    #: After a shutdown request: how long to wait for in-flight cells to
    #: finish (and be journaled) before cancelling them.  Kept well under
    #: the "< 5 s to exit" budget.
    DRAIN_GRACE = 1.5

    def __init__(self, runner: Callable[[Any], Any], *, jobs: int = 1,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.runner = runner
        self.jobs = max(1, jobs)
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.timeout = timeout
        self.fault_plan = fault_plan
        #: Worker heartbeat period: at least 4 samples per stall window
        #: so one lost/late beat cannot look like a stall, capped at 1 s
        #: so heartbeats stay cheap on long windows.
        self.heartbeat_interval = (max(0.02, min(1.0, timeout / 4))
                                   if timeout is not None else 1.0)
        self._ctx = None
        self._wid = itertools.count()

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Any], *,
            on_result: Optional[Callable[[Any, Any], None]] = None) -> List:
        """Run every task, returning results in task order.

        ``on_result(task, result)`` is invoked once per computed task, in
        completion order — the journaling hook.  (Resumed cells never
        reach here: the engine drops journaled cells before it builds
        tasks.)
        """
        results: Dict[int, Any] = {}
        todo = [_Attempt(idx, task) for idx, task in enumerate(tasks)]
        if todo:
            can_fork = "fork" in multiprocessing.get_all_start_methods()
            if len(todo) > 1 and self.jobs > 1 and can_fork:
                self._run_pool(todo, results, on_result)
            else:
                self._run_in_process(todo, todo, results, on_result,
                                     where="serial")
        return [results[idx] for idx in range(len(tasks))]

    # ------------------------------------------------------------------
    # in-process execution (jobs=1 / no fork, and the serial fallback)
    # ------------------------------------------------------------------
    def _run_in_process(self, atts, todo, results, on_result, *,
                        where: str) -> None:
        """Run ``atts`` one by one in this process until each succeeds or
        the policy aborts: ``where="serial"`` retries (``jobs=1`` / no
        fork), ``"serial-fallback"`` is the one attempt a cell gets after
        the worker pool gave up on it."""
        rec = get_recorder()
        for att in atts:
            signals.check_interrupt()
            while True:
                att.attempts += 1
                rec.event("task.assigned", cell=task_attr(att.task),
                          attempt=att.attempts, where=where)
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply_serial(att.task, att.attempts,
                                                     att.idx)
                    result = self.runner(att.task)
                    break
                except Exception as exc:
                    att.history.append({"attempt": att.attempts,
                                        "where": where,
                                        **policy.classify_exception(exc)})
                if policy.cell_failed(att, self.retry) == "abort":
                    raise self._failure(att, results, todo) from None
                self.retry.sleep(att.attempts)
            rec.event("task.done", cell=task_attr(att.task),
                      attempt=att.attempts)
            results[att.idx] = result
            if on_result is not None:
                on_result(att.task, result)

    # ------------------------------------------------------------------
    # supervised pool execution
    # ------------------------------------------------------------------
    def _run_pool(self, todo, results, on_result) -> None:
        global _WORKER_RUNNER, _WORKER_FAULTS, _WORKER_HEARTBEAT
        self._ctx = multiprocessing.get_context("fork")
        _WORKER_RUNNER = self.runner
        _WORKER_FAULTS = self.fault_plan
        _WORKER_HEARTBEAT = self.heartbeat_interval
        endpoints: List[_ForkEndpoint] = []
        pending = deque(todo)
        #: cells that exhausted worker attempts, awaiting the serial
        #: fallback (run after the pool drains so one bad cell cannot
        #: stall healthy workers).
        fallback: List[_Attempt] = []
        outstanding = len(todo)
        try:
            endpoints.extend(self._spawn()
                             for _ in range(min(self.jobs, len(todo))))
            while outstanding > len(fallback):
                coord = signals.get_shutdown()
                if coord is not None and coord.requested:
                    self._drain_interrupted(endpoints, results, todo,
                                            on_result)
                now = time.monotonic()
                self._assign_ready(endpoints, pending, now)
                wait_for, busy = [], []
                for ep in endpoints:
                    if ep.current is not None:
                        wait_for += (ep.conn, ep.process.sentinel)
                        busy.append(ep)
                if not busy:
                    # Nothing in flight: only backoff-delayed cells remain.
                    delay = min(a.not_before for a in pending) - now
                    if delay > 0:
                        time.sleep(min(delay, self.POLL_INTERVAL))
                    continue
                ready = multiprocessing.connection.wait(
                    wait_for, timeout=self._wait_timeout(busy, pending, now))
                ready_set = set(ready)
                for ep in list(busy):
                    finished = self._service_endpoint(
                        ep, ready_set, endpoints, pending, fallback,
                        results, on_result)
                    outstanding -= finished
                self._reap_timeouts(endpoints, pending, fallback)
        finally:
            for ep in endpoints:
                ep.stop(kill=True)
            _WORKER_RUNNER = None
            _WORKER_FAULTS = None
            _WORKER_HEARTBEAT = None
        # Cells that repeatedly failed in workers get one last serial
        # in-process attempt each.
        self._run_in_process(fallback, todo, results, on_result,
                             where="serial-fallback")

    # -- pool helpers --------------------------------------------------
    def _spawn(self) -> _ForkEndpoint:
        return _ForkEndpoint(self._ctx, next(self._wid))

    def _assign_ready(self, endpoints, pending, now) -> None:
        for ep in list(endpoints):
            if ep.current is not None or not pending:
                continue
            for _ in range(len(pending)):
                att = pending.popleft()
                if att.not_before <= now:
                    try:
                        ep.assign(att, self.timeout)
                    except EndpointLostError:
                        # The pipe died between replies: the attempt
                        # never started, so un-count it and retire the
                        # worker.
                        att.attempts -= 1
                        ep.current = None
                        pending.appendleft(att)
                        self._retire(ep, endpoints, pending, stalled=False)
                        break
                    get_recorder().event(
                        "task.assigned", cell=task_attr(att.task),
                        attempt=att.attempts, worker_pid=ep.pid)
                    break
                pending.append(att)
            else:
                break  # every pending cell is backoff-delayed

    def _wait_timeout(self, busy, pending, now) -> float:
        timeout = self.POLL_INTERVAL
        for ep in busy:
            if ep.deadline is not None:
                timeout = min(timeout, max(0.0, ep.deadline - now))
        for att in pending:
            timeout = min(timeout, max(0.0, att.not_before - now))
        return timeout

    def _retire(self, ep, endpoints, pending, *, stalled) -> None:
        """Stop a dead/stalled worker and spawn its replacement: a
        *stalled* worker is always replaced; a *dead* one only while
        cells are pending and the pool is below ``jobs``."""
        ep.stop(kill=True)
        if ep in endpoints:
            endpoints.remove(ep)
        if stalled or (pending and len(endpoints) < self.jobs):
            endpoints.append(self._spawn())

    def _service_endpoint(self, ep, ready_set, endpoints, pending, fallback,
                          results, on_result) -> int:
        """Handle one worker's reply or death; returns cells finished."""
        lost: Optional[EndpointLostError] = None
        if ep.conn in ready_set:
            try:
                msg = ep.recv()
            except EndpointLostError as exc:
                lost = exc
                msg = None
            if msg is not None and msg[0] == "hb":
                self._note_heartbeat(ep, msg)
                return 0
            if msg is not None:
                _, ok, payload, _ = msg
                att = self._take_reply(ep, msg)
                if ok:
                    self._done(att, payload, results, on_result)
                    return 1
                att.history.append({"attempt": att.attempts,
                                    "where": "worker",
                                    "error": payload["error"],
                                    "kind": payload.get("kind", "error")})
                self._reschedule(att, pending, fallback)
                return 0
        # Death handling.  A worker whose pipe merely hit EOF defers to
        # the process sentinel — unless the pipe is *garbled*, in which
        # case it can never deliver another frame and the worker must be
        # killed even though its process may still be alive.
        garbled = lost is not None and lost.garbled
        if (garbled or not ep.process.is_alive()
                or ep.process.sentinel in ready_set):
            if not garbled and ep.process.is_alive():
                return 0  # pragma: no cover - sentinel race
            att, ep.current = ep.current, None
            kind, description = ep.death(lost)
            if att is not None:
                att.history.append({
                    "attempt": att.attempts, "where": "worker",
                    "error": description, "kind": kind})
                # Reschedule *before* retiring: the replacement decision
                # sees the cell back in the pending queue, so the last
                # worker's death with the last cell in hand still spawns
                # a successor.
                self._reschedule(att, pending, fallback)
            self._retire(ep, endpoints, pending, stalled=False)
        return 0

    @staticmethod
    def _take_reply(ep, msg):
        """Free ``ep`` of the task a ``(idx, ok, payload, records)`` reply
        answers, returning its attempt record.  The worker's buffered
        telemetry is merged first, so the cell's spans precede its
        outcome."""
        records = msg[3]
        if records:
            get_recorder().ingest(records)
        att, ep.current, ep.deadline = ep.current, None, None
        return att

    @staticmethod
    def _done(att, payload, results, on_result) -> None:
        results[att.idx] = payload
        get_recorder().event("task.done", cell=task_attr(att.task),
                             attempt=att.attempts)
        if on_result is not None:
            on_result(att.task, payload)

    def _note_heartbeat(self, ep, msg) -> None:
        """Fold one ``("hb", idx, progress, cell)`` liveness report.

        The stall deadline is pushed out only when the progress counter
        *advanced* since the previous sample — a heartbeat thread keeps
        beating inside a worker stuck in ``time.sleep`` or a foreign
        C call, so mere liveness must not count as progress.  The first
        sample after an assignment only establishes the baseline (the
        assignment itself already armed the deadline).
        """
        _, idx, progress, cellattr = msg
        att = ep.current
        if att is None or att.idx != idx:
            return  # stale beat from a task that already replied
        advanced = (ep.last_progress is not None
                    and progress > ep.last_progress)
        ep.last_progress = progress
        if advanced and self.timeout is not None:
            ep.deadline = time.monotonic() + self.timeout
        get_recorder().metric("worker.heartbeat", progress, unit="events",
                              cell=cellattr, worker_pid=ep.pid)

    def _reap_timeouts(self, endpoints, pending, fallback) -> None:
        """Kill workers whose progress counter stalled for ``timeout``.

        ``deadline`` is armed at assignment and re-armed by every
        heartbeat that shows progress, so only a genuinely frozen worker
        ever reaches it (see :meth:`_note_heartbeat`).
        """
        if self.timeout is None:
            return
        now = time.monotonic()
        for ep in list(endpoints):
            if ep.current is None or ep.deadline is None or now < ep.deadline:
                continue
            att, ep.current = ep.current, None
            att.history.append({"attempt": att.attempts, "where": "worker",
                                "error": f"no progress for {self.timeout}s "
                                         "(stalled)",
                                "kind": "hang"})
            self._retire(ep, endpoints, pending, stalled=True)
            self._reschedule(att, pending, fallback)

    def _drain_interrupted(self, endpoints, results, todo, on_result) -> None:
        """Graceful-shutdown endgame for the pool (first SIGINT/SIGTERM).

        Stops dispatching, gives in-flight cells :data:`DRAIN_GRACE`
        seconds to finish (journaling each result via ``on_result``),
        then abandons whatever is still running and raises
        :class:`~repro.errors.SweepInterrupted`.  The caller's
        ``finally`` kills the workers; abandoned cells simply stay out
        of the journal, so ``--resume`` re-runs exactly those.
        """
        rec = get_recorder()
        busy = [ep for ep in endpoints if ep.current is not None]
        rec.event("shutdown.requested", level="warning", where="pool",
                  in_flight=len(busy))
        logger.warning("shutdown requested: draining %d in-flight cell(s), "
                       "%.1fs grace", len(busy), self.DRAIN_GRACE)
        deadline = time.monotonic() + self.DRAIN_GRACE
        while busy:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            by_conn = {ep.conn: ep for ep in busy}
            ready = multiprocessing.connection.wait(
                list(by_conn), timeout=remaining)
            for conn in ready:
                ep = by_conn[conn]
                try:
                    msg = ep.recv()
                except EndpointLostError:
                    ep.current = None  # died mid-drain: leave unjournaled
                    continue
                if msg and msg[0] == "hb":
                    continue
                idx, ok, payload, _ = msg
                att = self._take_reply(ep, msg)
                if ok and att is not None and att.idx == idx:
                    self._done(att, payload, results, on_result)
            busy = [ep for ep in endpoints if ep.current is not None]
        cancelled = [ep.current.task for ep in endpoints
                     if ep.current is not None]
        policy.cells_abandoned(cancelled)
        partial = self._partial(results, todo)

        def cells(tasks):  # a group task journals each of its cells
            return sum(len(policy.task_cells(task)) for task in tasks)

        raise SweepInterrupted(
            f"sweep interrupted: {cells(partial)} cell(s) journaled, "
            f"{cells(cancelled)} in-flight cell(s) cancelled",
            completed_cells=cells(partial), partial=partial)

    def _reschedule(self, att, pending, fallback) -> None:
        """Carry out the policy's decision after a failed worker attempt:
        a pool attempt is always followed by a retry or the serial
        fallback."""
        if policy.cell_failed(att, self.retry) == "retry":
            att.not_before = (time.monotonic()
                              + self.retry.delay(att.attempts))
            pending.append(att)
        else:
            fallback.append(att)

    # ------------------------------------------------------------------
    @staticmethod
    def _partial(results, todo) -> dict:
        return {a.task: results[a.idx] for a in todo if a.idx in results}

    def _failure(self, att, results, todo) -> CellFailedError:
        return CellFailedError(
            f"cell {task_label(att.task)} failed after "
            f"{len(att.history)} attempt(s)",
            cell=att.task, attempts=att.history,
            partial=self._partial(results, todo))
