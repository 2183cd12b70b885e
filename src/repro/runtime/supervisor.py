"""Supervised fan-out of independent grid cells over pluggable transports.

``SweepEngine.run_grid`` used to hand the grid to a bare ``pool.map``: one
crashed worker, one hung cell or one raised exception aborted the whole
sweep and discarded every completed cell.  :class:`Supervisor` replaces it
with per-cell task tracking:

* each worker is a :class:`~repro.runtime.transport.WorkerEndpoint`
  provided by a transport — a dedicated ``fork`` process driven over its
  own duplex pipe (:class:`~repro.runtime.transport.LocalForkTransport`,
  the default), or a remote worker runner over framed TCP
  (:class:`~repro.runtime.transport.TcpTransport`) — so the supervisor
  always knows *which* cell a worker is running and since when;
* the event loop multiplexes reply channels **and** process sentinels via
  :func:`multiprocessing.connection.wait` — a dead worker or a reset
  connection is noticed immediately, not at ``join`` time;
* a per-cell stall timeout kills hung workers and reschedules their cell;
* what follows a failure — retry after backoff, one serial in-process
  fallback attempt, handing an OOM to the run's degradation ladder, or
  aborting — is decided by :mod:`repro.runtime.policy`; the supervisor
  only carries it out;
* a lost *host* (connection reset, torn frame, heartbeat silence) is a
  ``host_lost`` failure: the cell is reassigned to surviving endpoints —
  safe because dispatch is idempotent and keyed by the same checkpoint
  keys ``--resume`` uses — while the transport reconnects the host or
  drops it per the same policy.  When every transport is exhausted (all
  remote hosts dropped, no local workers), the remaining cells fall back
  to serial in-process execution instead of dying with the fleet;
* only when the serial fallback also fails does the supervisor raise
  :class:`~repro.errors.CellFailedError`, carrying the cell, its attempt
  history and the partial results of every completed cell.

The supervisor is also the enforcement point of the resource governor
(:mod:`repro.runtime.resources`): workers soft-cap their own address
space via ``RLIMIT_AS`` (``worker_rlimit_bytes``) so an over-budget cell
raises a clean ``MemoryError`` instead of being SIGKILLed mid-write.
Given the run's :class:`~repro.runtime.policy.OomLadder`, an OOM-class
failure in a worker aborts the pool with a structured
:class:`~repro.errors.ResourceExhaustedError` (attempt history plus all
partial results) so the sweep engine can re-plan the run instead of
blindly retrying the same oversized configuration.

Local fork workers inherit their runner (and any fault plan) through
module globals at fork time, so nothing is pickled — the same zero-copy
trick the old pool used.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import CellFailedError, ResourceExhaustedError, SweepInterrupted
from ..obs import get_recorder
from . import policy, signals
from .faults import FaultPlan
from .policy import OomLadder, task_attr
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .transport import (
    EndpointLostError,
    LocalForkTransport,
    Transport,
    WorkerConfig,
    WorkerEndpoint,
)

logger = logging.getLogger(__name__)


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
    """Run independent tasks with crash/hang/host-loss detection, retries
    and graceful degradation to serial execution.

    Parameters
    ----------
    runner:
        ``runner(task) -> result``.  Must be inheritable by fork (local
        workers receive it through a module global, never pickled).
    jobs:
        Local worker process count; ``1`` (or platforms without ``fork``)
        spawns no local workers — everything runs serially in-process
        unless remote transports provide endpoints.
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
        last progress.  For remote endpoints the same watchdog doubles
        as the heartbeat-silence detector: a partitioned host stops
        beating and its cell is reassigned as ``host_lost``.  ``None``
        disables stall detection entirely.
    fault_plan:
        Optional deterministic :class:`FaultPlan` (tests only).
    worker_rlimit_bytes:
        Per-worker address-space *growth* cap in bytes (above the
        fork-inherited baseline), installed in each local worker via
        ``resource.setrlimit(RLIMIT_AS)``.  ``None`` leaves workers
        uncapped.
    transports:
        Extra :class:`~repro.runtime.transport.Transport` instances
        (remote hosts) joining the local fork pool.  The local transport
        is constructed implicitly from ``jobs``.
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
                 fault_plan: Optional[FaultPlan] = None,
                 worker_rlimit_bytes: Optional[int] = None,
                 transports: Optional[Sequence[Transport]] = None):
        self.runner = runner
        self.jobs = max(1, jobs)
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.timeout = timeout
        self.fault_plan = fault_plan
        self.worker_rlimit_bytes = worker_rlimit_bytes
        self.transports = list(transports or ())
        #: Worker heartbeat period: at least 4 samples per stall window
        #: so one lost/late beat cannot look like a stall, capped at 1 s
        #: so heartbeats stay cheap on long windows.
        self.heartbeat_interval = (max(0.02, min(1.0, timeout / 4))
                                   if timeout is not None else 1.0)

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Any], *,
            completed: Optional[Dict[Any, Any]] = None,
            on_result: Optional[Callable[[Any, Any], None]] = None,
            ladder: Optional[OomLadder] = None) -> List:
        """Run every task, returning results in task order.

        ``completed`` maps already-finished tasks to their results (the
        checkpoint resume path); those tasks are not re-run and
        ``on_result`` is not re-fired for them.  ``on_result(task, result)``
        is invoked once per freshly computed task, in completion order —
        the journaling hook.  ``ladder`` is the caller's
        :class:`~repro.runtime.policy.OomLadder`: while it has a step
        left, an OOM-class failure in a worker raises
        :class:`~repro.errors.ResourceExhaustedError` for the caller to
        re-plan; without one, OOM is retried like any other failure.
        """
        results: Dict[int, Any] = {}
        todo: List[_Attempt] = []
        for idx, task in enumerate(tasks):
            if completed is not None and task in completed:
                results[idx] = completed[task]
            else:
                todo.append(_Attempt(idx, task))
        if todo:
            has_remote = any(t.is_remote for t in self.transports)
            can_fork = "fork" in multiprocessing.get_all_start_methods()
            use_pool = (len(todo) > 1 and
                        (has_remote or (self.jobs > 1 and can_fork)))
            if use_pool:
                self._run_pool(todo, results, on_result, ladder)
            else:
                self._run_in_process(todo, todo, results, on_result,
                                     where="serial")
        return [results[idx] for idx in range(len(tasks))]

    def _pool_transports(self) -> List[Transport]:
        """Transports joining this pool run: local fork first, then any
        remote transports, so local capacity soaks up cells before slower
        channels do."""
        trs: List[Transport] = []
        if (self.jobs > 1
                and "fork" in multiprocessing.get_all_start_methods()):
            trs.append(LocalForkTransport(self.jobs))
        trs.extend(self.transports)
        return trs

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
    def _run_pool(self, todo, results, on_result, ladder) -> None:
        config = WorkerConfig(self.runner, fault_plan=self.fault_plan,
                              rlimit_bytes=self.worker_rlimit_bytes,
                              heartbeat_interval=self.heartbeat_interval)
        transports = self._pool_transports()
        endpoints: List[WorkerEndpoint] = []
        pending = deque(todo)
        #: cells that exhausted worker attempts (or outlived every
        #: transport), awaiting the serial fallback (run after the pool
        #: drains so one bad cell cannot stall healthy workers).
        fallback: List[_Attempt] = []
        outstanding = len(todo)
        try:
            for tr in transports:
                tr.open(config)
                endpoints.extend(tr.start(len(todo)))
            while outstanding > len(fallback):
                coord = signals.get_shutdown()
                if coord is not None and coord.requested:
                    self._drain_interrupted(endpoints, results, todo,
                                            on_result)
                now = time.monotonic()
                for tr in transports:
                    endpoints.extend(tr.revive(now))
                if pending and not endpoints:
                    if all(tr.exhausted for tr in transports):
                        self._fall_back_local(pending, fallback)
                        continue
                    # Every channel is down but a transport is still
                    # reconnecting: wait for its next attempt window.
                    time.sleep(self.POLL_INTERVAL)
                    continue
                self._assign_ready(endpoints, pending, now)
                wait_for, busy = [], []
                for ep in endpoints:
                    if ep.current is not None:
                        wait_for.extend(ep.wait_handles())
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
                        results, on_result, todo, ladder)
                    outstanding -= finished
                self._reap_timeouts(endpoints, pending, fallback, results,
                                    todo, ladder)
        finally:
            for ep in endpoints:
                ep.stop(kill=True)
            for tr in transports:
                tr.close()
        # Cells that repeatedly failed in workers (or outlived every
        # transport) get one last serial in-process attempt each.
        self._run_in_process(fallback, todo, results, on_result,
                             where="serial-fallback")

    # -- pool helpers --------------------------------------------------
    def _fall_back_local(self, pending, fallback) -> None:
        """Every transport is permanently out of endpoints (all remote
        hosts dropped, no local workers): move the remaining cells to the
        serial in-process fallback instead of dying with the fleet."""
        policy.transports_exhausted(len(pending))
        while pending:
            fallback.append(pending.popleft())

    def _assign_ready(self, endpoints, pending, now) -> None:
        for ep in list(endpoints):
            if ep.current is not None or not pending:
                continue
            for _ in range(len(pending)):
                att = pending.popleft()
                if att.not_before <= now:
                    try:
                        ep.assign(att, self.timeout)
                    except EndpointLostError as exc:
                        # The channel died between replies: the attempt
                        # never started, so un-count it and retire the
                        # endpoint.
                        att.attempts -= 1
                        ep.current = None
                        pending.appendleft(att)
                        self._retire(ep, endpoints, pending, lost=exc,
                                     stalled=False)
                        break
                    attrs = {"worker_pid": ep.pid}
                    if ep.host is not None:
                        attrs["host"] = ep.host
                    get_recorder().event(
                        "task.assigned", cell=task_attr(att.task),
                        attempt=att.attempts, **attrs)
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

    def _retire(self, ep, endpoints, pending, *, lost, stalled) -> None:
        """Stop a dead/stalled endpoint and ask its transport for
        replacements."""
        if ep.host is not None and (lost is not None or stalled):
            policy.host_lost(ep.host, str(lost) if lost is not None
                             else "heartbeat silence (stalled)")
        ep.stop(kill=True)
        if ep in endpoints:
            endpoints.remove(ep)
        endpoints.extend(ep.transport.replace(ep, pending=len(pending),
                                              stalled=stalled))

    def _service_endpoint(self, ep, ready_set, endpoints, pending, fallback,
                          results, on_result, todo, ladder) -> int:
        """Handle one endpoint's reply or death; returns cells finished."""
        lost: Optional[EndpointLostError] = None
        if ep.readable(ready_set):
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
                    self._done(ep, att, payload, results, on_result)
                    return 1
                att.history.append({"attempt": att.attempts,
                                    "where": ep.where,
                                    "error": payload["error"],
                                    "kind": payload.get("kind", "error")})
                self._reschedule(att, pending, fallback, results, todo,
                                 ladder)
                return 0
        # Death handling.  A remote endpoint is dead the moment its
        # channel fails; a local fork worker whose pipe merely hit EOF
        # defers to the process sentinel (the pre-transport behavior) —
        # unless the channel is *garbled*, in which case the pipe can
        # never deliver another frame and the worker must be killed even
        # though its process may still be alive.
        force_dead = lost is not None and (ep.host is not None
                                           or lost.garbled)
        if force_dead or ep.dead(ready_set):
            if not force_dead and not ep.confirm_dead():
                return 0  # pragma: no cover - sentinel race
            att, ep.current = ep.current, None
            kind, description = ep.death(lost)
            if att is not None:
                att.history.append({
                    "attempt": att.attempts, "where": ep.where,
                    "error": description, "kind": kind})
                # Reschedule *before* retiring: the transport's replace()
                # decision sees the cell back in the pending queue, so the
                # last worker's death with the last cell in hand still
                # spawns a successor.
                self._reschedule(att, pending, fallback, results, todo,
                                 ladder)
            self._retire(ep, endpoints, pending, lost=lost, stalled=False)
        return 0

    @staticmethod
    def _take_reply(ep, msg):
        """Free ``ep`` of the task a ``(idx, ok, payload, records)`` reply
        answers, returning its attempt record.  The worker's buffered
        telemetry (stamped with the endpoint's host, so per-host accounting
        holds on every path) is merged first, so the cell's spans precede
        its outcome."""
        records = msg[3]
        if records:
            if ep.host is not None:
                records = [dict(r, attrs=dict(r.get("attrs") or {},
                                              host=ep.host))
                           if isinstance(r, dict) else r for r in records]
            get_recorder().ingest(records)
        att, ep.current, ep.deadline = ep.current, None, None
        return att

    @staticmethod
    def _done(ep, att, payload, results, on_result) -> None:
        results[att.idx] = payload
        attrs = {"cell": task_attr(att.task), "attempt": att.attempts}
        if ep.host is not None:
            attrs["host"] = ep.host
        get_recorder().event("task.done", **attrs)
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
        attrs = {"worker_pid": ep.pid}
        if ep.host is not None:
            attrs["host"] = ep.host
        get_recorder().metric("worker.heartbeat", progress, unit="events",
                              cell=cellattr, **attrs)

    def _reap_timeouts(self, endpoints, pending, fallback, results, todo,
                       ladder) -> None:
        """Kill endpoints whose progress counter stalled for ``timeout``.

        ``deadline`` is armed at assignment and re-armed by every
        heartbeat that shows progress, so only a genuinely frozen worker
        ever reaches it (see :meth:`_note_heartbeat`).  For a remote
        endpoint heartbeat silence means the *host* is unreachable
        (partitioned, frozen, or dead), so the failure is classified
        ``host_lost`` rather than ``hang``.
        """
        if self.timeout is None:
            return
        now = time.monotonic()
        for ep in list(endpoints):
            if ep.current is None or ep.deadline is None or now < ep.deadline:
                continue
            att, ep.current = ep.current, None
            att.history.append({"attempt": att.attempts, "where": ep.where,
                                "error": f"no progress for {self.timeout}s "
                                         "(stalled)",
                                "kind": ep.stall_kind})
            self._retire(ep, endpoints, pending, lost=None, stalled=True)
            self._reschedule(att, pending, fallback, results, todo, ladder)

    def _drain_interrupted(self, endpoints, results, todo, on_result) -> None:
        """Graceful-shutdown endgame for the pool (first SIGINT/SIGTERM).

        Stops dispatching, gives in-flight cells :data:`DRAIN_GRACE`
        seconds to finish (journaling each result via ``on_result``),
        then abandons whatever is still running and raises
        :class:`~repro.errors.SweepInterrupted`.  The caller's
        ``finally`` kills the workers; abandoned cells simply stay out
        of the journal, so ``--resume`` re-runs exactly those.  Remote
        in-flight cells drain through the same window: their reply
        channels sit in the same ``wait`` set as local pipes.
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
            by_handle = {ep.drain_handle(): ep for ep in busy}
            ready = multiprocessing.connection.wait(
                list(by_handle), timeout=remaining)
            for handle in ready:
                ep = by_handle[handle]
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
                    self._done(ep, att, payload, results, on_result)
            busy = [ep for ep in endpoints if ep.current is not None]
        cancelled = [ep.current.task for ep in endpoints
                     if ep.current is not None]
        policy.cells_abandoned(cancelled)
        partial = self._partial(results, todo)
        raise SweepInterrupted(
            f"sweep interrupted: {len(partial)} cell(s) journaled, "
            f"{len(cancelled)} in-flight cell(s) cancelled",
            completed_cells=len(partial), partial=partial)

    def _reschedule(self, att, pending, fallback, results, todo,
                    ladder) -> None:
        """Carry out the policy's decision after a failed worker attempt."""
        action = policy.cell_failed(att, self.retry, ladder)
        if action == "retry":
            att.not_before = (time.monotonic()
                              + self.retry.delay(att.attempts))
            pending.append(att)
        elif action == "serial":
            fallback.append(att)
        else:
            # "degrade": abort the pool so the caller's ladder re-plans
            # the run; re-running the same oversized task could only
            # summon the OOM killer again.
            detail = ((att.history[-1]["error"] or "").strip().splitlines()
                      or ["out of memory"])[-1]
            raise ResourceExhaustedError(
                f"task {att.task!r} exhausted memory on attempt "
                f"{att.attempts} ({detail})",
                kind="memory", cell=att.task, attempts=att.history,
                partial=self._partial(results, todo))

    # ------------------------------------------------------------------
    @staticmethod
    def _partial(results, todo) -> dict:
        return {a.task: results[a.idx] for a in todo if a.idx in results}

    def _failure(self, att, results, todo) -> CellFailedError:
        return CellFailedError(
            f"cell {att.task!r} failed after {len(att.history)} attempt(s)",
            cell=att.task, attempts=att.history,
            partial=self._partial(results, todo))
