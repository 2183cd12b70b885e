"""Pluggable worker transports for the supervised sweep pool.

The :class:`~repro.runtime.supervisor.Supervisor` used to speak one
hard-wired dialect: fork a child per worker and drive it over a duplex
pipe.  This module extracts that conversation behind a small endpoint
abstraction so the *same* task/reply/heartbeat protocol can run over
other channels:

* :class:`LocalForkTransport` — the original fork-pipe path, bit-identical
  in behavior (workers still inherit their runner through module globals
  at fork time, replies are still pickled tuples on a
  ``multiprocessing.Pipe``).
* :class:`TcpTransport` — drives remote worker runners
  (``python -m repro.runtime.remote_worker --listen HOST:PORT``) over
  length-prefixed JSON frames carrying the same messages.

The wire protocol is deliberately dumb: every frame is a 4-byte
big-endian length followed by UTF-8 JSON.  A connection starts with a
versioned handshake — ``hello`` carries the protocol version, repro
release, journal format version, effective kernel mode, trace identity
and workload name; the runner answers ``welcome`` or a structured
``refused`` naming both sides' values, which the client raises as
:class:`~repro.errors.HandshakeError`.  A mismatched or stale host is
therefore rejected up front instead of silently diverging mid-sweep.

Failure model
-------------
Any transport-level defect on an established connection — EOF, a torn or
garbled frame, a send into a closed socket, heartbeat silence past the
stall window — surfaces as :class:`EndpointLostError` and is classified
by the supervisor as the ``host_lost`` fail kind.  Lost cells are simply
rescheduled: dispatch is idempotent and keyed by the same checkpoint
keys ``--resume`` uses, so a cell that ran twice journals once.
:class:`TcpTransport` additionally reconnects a flapping host under
capped backoff and drops it for the run, as
:mod:`repro.runtime.policy` decides; when every remote host is dropped
and no local workers exist, the supervisor falls back to serial
in-process execution.
"""

from __future__ import annotations

import itertools
import json
import logging
import multiprocessing
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, HandshakeError
from ..obs import (apply_trace_context, get_recorder, trace_context,
                   worker_begin)
from . import policy, signals
from .faults import FaultPlan
from .policy import classify_exitcode, task_attr
from .resources import apply_worker_rlimit, peak_rss_bytes
from .retry import RetryPolicy

logger = logging.getLogger(__name__)

#: Version of the framed TCP dialect; bumped on any wire-format change.
PROTOCOL_VERSION = 1
#: Hard cap on one frame's payload — anything larger is a garbled length
#: header, not a legitimate message.
MAX_FRAME_BYTES = 64 << 20
#: Blocking-read guard while assembling one frame.  ``connection.wait``
#: only wakes us when bytes are available, so a frame that stays
#: incomplete this long means the peer died mid-message.
FRAME_RECV_TIMEOUT = 30.0

_HEADER = struct.Struct(">I")

# Fork-inherited worker state (set in the parent just before spawning).
_WORKER_RUNNER: Optional[Callable[[Any], Any]] = None
_WORKER_FAULTS: Optional[FaultPlan] = None
_WORKER_RLIMIT: Optional[int] = None
_WORKER_HEARTBEAT: Optional[float] = None


class EndpointLostError(Exception):
    """A worker endpoint's channel failed (EOF, torn frame, reset).

    Internal control flow between transports and the supervisor — never
    user-facing.  ``garbled`` distinguishes a *corrupted* channel (bytes
    arrived but could not be decoded: the peer must be killed, its pipe
    can never become readable again) from a plain EOF (for local fork
    workers the process sentinel is the authority on death, exactly as
    before this abstraction existed).
    """

    def __init__(self, message: str, *, garbled: bool = False):
        super().__init__(message)
        self.garbled = garbled


# ----------------------------------------------------------------------
# framing (TCP dialect)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, obj: dict) -> None:
    """Send one length-prefixed JSON frame; raises :class:`EndpointLostError`."""
    data = json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    try:
        sock.sendall(_HEADER.pack(len(data)) + data)
    except (OSError, ValueError) as exc:
        raise EndpointLostError(f"send failed: {exc}") from None


def _recv_exact(sock: socket.socket, n: int, *, mid_frame: bool) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except socket.timeout:
            raise EndpointLostError(
                "frame receive timed out mid-message", garbled=True) \
                from None
        except OSError as exc:
            raise EndpointLostError(f"connection error: {exc}",
                                    garbled=bool(buf)) from None
        if not chunk:
            torn = mid_frame or bool(buf)
            raise EndpointLostError(
                "connection closed mid-message" if torn
                else "connection closed", garbled=torn)
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> dict:
    """Receive one frame; raises :class:`EndpointLostError` on EOF/torn/garbage."""
    header = _recv_exact(sock, _HEADER.size, mid_frame=False)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise EndpointLostError(
            f"oversized frame ({length} bytes): garbled length header",
            garbled=True)
    data = _recv_exact(sock, length, mid_frame=True)
    try:
        msg = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise EndpointLostError(f"garbled frame: {exc}", garbled=True) \
            from None
    if not isinstance(msg, dict) or "t" not in msg:
        raise EndpointLostError(f"malformed frame: {msg!r}", garbled=True)
    return msg


def parse_hosts(spec: str) -> List[Tuple[str, int]]:
    """Parse ``--hosts host:port,host:port`` into ``[(host, port), ...]``.

    Listing the same host twice yields two connections (two remote
    workers) — the runner forks one serving child per connection.
    """
    out: List[Tuple[str, int]] = []
    for item in (spec or "").split(","):
        item = item.strip()
        if not item:
            continue
        host, sep, port = item.rpartition(":")
        if not sep or not host:
            raise ConfigError(
                f"invalid host {item!r}: expected host:port")
        try:
            port_n = int(port)
        except ValueError:
            raise ConfigError(
                f"invalid port in host {item!r}: {port!r}") from None
        if not 0 < port_n < 65536:
            raise ConfigError(f"port out of range in host {item!r}")
        out.append((host, port_n))
    if not out:
        raise ConfigError(f"no hosts in --hosts value {spec!r}")
    return out


def handshake_spec(*, trace_key: str, kernel: str,
                   workload: Optional[str]) -> Dict[str, Any]:
    """The client's side of the versioned handshake.

    Binds everything two processes must agree on before sharing cells:
    repro release, journal format version, effective kernel mode and the
    trace's checkpoint identity.  The runner refuses any mismatch with a
    structured error naming both sides (see
    :class:`~repro.errors.HandshakeError`).
    """
    import repro  # lazy: repro/__init__ imports runtime modules first
    from .checkpoint import JOURNAL_VERSION

    return {"proto": PROTOCOL_VERSION, "release": repro.__version__,
            "journal_v": JOURNAL_VERSION, "kernel": kernel,
            "trace_key": trace_key, "workload": workload}


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
    pipe) ends the loop.  When the parent configured
    ``worker_rlimit_bytes``, the worker soft-caps its address space
    *relative to what fork inherited* before serving tasks, so an
    over-budget cell dies as a classified ``MemoryError`` reply, never as
    a kernel SIGKILL.

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
    if _WORKER_RLIMIT is not None:
        apply_worker_rlimit(_WORKER_RLIMIT)
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


class WorkerConfig:
    """What a transport needs to stand up workers for one pool run."""

    __slots__ = ("runner", "fault_plan", "rlimit_bytes",
                 "heartbeat_interval")

    def __init__(self, runner, *, fault_plan=None, rlimit_bytes=None,
                 heartbeat_interval=None):
        self.runner = runner
        self.fault_plan = fault_plan
        self.rlimit_bytes = rlimit_bytes
        self.heartbeat_interval = heartbeat_interval


class WorkerEndpoint:
    """One worker the supervisor can assign cells to, however connected.

    The supervisor only ever touches this interface: ``assign`` /
    ``stop`` / ``recv`` plus the waitable ``wait_handles``.  Scheduling
    state (``current``, ``deadline``, ``last_progress``) lives on the
    endpoint so the stall watchdog is transport-agnostic.
    """

    #: fail kind recorded when this endpoint's stall deadline passes.
    stall_kind = "hang"
    #: ``where`` recorded in attempt histories.
    where = "worker"
    #: remote host label (``None`` for local fork workers).
    host: Optional[str] = None

    def assign(self, att, timeout: Optional[float]) -> None:
        raise NotImplementedError

    def stop(self, *, kill: bool = False) -> None:
        raise NotImplementedError

    def wait_handles(self) -> tuple:
        """Objects for :func:`multiprocessing.connection.wait`."""
        raise NotImplementedError

    def drain_handle(self):
        """The reply channel alone (shutdown drain ignores death)."""
        raise NotImplementedError

    def readable(self, ready_set) -> bool:
        raise NotImplementedError

    def recv(self):
        """One normalized message: ``("hb", idx, progress, cell)`` or
        ``(idx, ok, payload, records)``.  Raises
        :class:`EndpointLostError` when the channel is gone."""
        raise NotImplementedError

    def dead(self, ready_set) -> bool:
        """Death indication independent of the reply channel."""
        return False

    def confirm_dead(self) -> bool:
        """Re-check after :meth:`dead` (local sentinel race guard)."""
        return True

    def death(self, lost: Optional[EndpointLostError]):
        """``(fail_kind, description)`` for the attempt history."""
        raise NotImplementedError


class Transport:
    """A source of worker endpoints with a replacement/recovery policy."""

    #: Remote transports force pool mode even at ``jobs=1`` and mark
    #: their failures ``host_lost``.
    is_remote = False

    def open(self, config: WorkerConfig) -> None:
        """Prepare for one pool run (called before :meth:`start`)."""

    def start(self, want: int) -> List[WorkerEndpoint]:
        """Stand up the initial endpoints (at most ``want`` useful)."""
        raise NotImplementedError

    def replace(self, endpoint: WorkerEndpoint, *, pending: int,
                stalled: bool) -> List[WorkerEndpoint]:
        """React to ``endpoint``'s death; return replacements (if any)."""
        return []

    def revive(self, now: float) -> List[WorkerEndpoint]:
        """Endpoints recovered by background policy (reconnects)."""
        return []

    @property
    def exhausted(self) -> bool:
        """True when this transport can never produce an endpoint again."""
        return False

    def close(self) -> None:
        """Tear down after the pool loop (endpoints already stopped)."""


# ----------------------------------------------------------------------
# local fork transport (the original supervisor dialect)
# ----------------------------------------------------------------------
class _ForkEndpoint(WorkerEndpoint):
    """One supervised fork worker and its pipe."""

    __slots__ = ("transport", "process", "conn", "current", "deadline",
                 "last_progress", "_shutdown_token")

    stall_kind = "hang"
    where = "worker"
    host = None

    def __init__(self, transport: "LocalForkTransport", ctx, wid: int):
        self.transport = transport
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
        self.transport._note_stopped(self)
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

    def wait_handles(self) -> tuple:
        return (self.conn, self.process.sentinel)

    def drain_handle(self):
        return self.conn

    def readable(self, ready_set) -> bool:
        return self.conn in ready_set

    def recv(self):
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

    def dead(self, ready_set) -> bool:
        return (not self.process.is_alive()
                or self.process.sentinel in ready_set)

    def confirm_dead(self) -> bool:
        return not self.process.is_alive()

    def death(self, lost: Optional[EndpointLostError]):
        if lost is not None and self.process.is_alive():
            return ("crash", f"worker reply channel lost ({lost})")
        return classify_exitcode(self.process.exitcode)


class LocalForkTransport(Transport):
    """Fork workers over duplex pipes — the original supervisor path.

    Workers inherit their runner (and any fault plan) through module
    globals at fork time, so nothing is pickled.  The replacement policy
    reproduces the pre-transport supervisor exactly: a *stalled* worker
    is always replaced; a *dead* worker is replaced only while cells are
    pending and the pool is below ``jobs``.
    """

    is_remote = False

    def __init__(self, jobs: int):
        self.jobs = max(1, jobs)
        self._ctx = None
        self._wid = itertools.count()
        self._active = 0
        self._opened = False

    def open(self, config: WorkerConfig) -> None:
        global _WORKER_RUNNER, _WORKER_FAULTS, _WORKER_RLIMIT, \
            _WORKER_HEARTBEAT
        self._ctx = multiprocessing.get_context("fork")
        _WORKER_RUNNER = config.runner
        _WORKER_FAULTS = config.fault_plan
        _WORKER_RLIMIT = config.rlimit_bytes
        _WORKER_HEARTBEAT = config.heartbeat_interval
        self._active = 0
        self._opened = True

    def start(self, want: int) -> List[WorkerEndpoint]:
        return [self._spawn() for _ in range(min(self.jobs, max(0, want)))]

    def _spawn(self) -> _ForkEndpoint:
        ep = _ForkEndpoint(self, self._ctx, next(self._wid))
        self._active += 1
        return ep

    def _note_stopped(self, ep) -> None:
        self._active = max(0, self._active - 1)

    def replace(self, endpoint, *, pending: int,
                stalled: bool) -> List[WorkerEndpoint]:
        if stalled or (pending and self._active < self.jobs):
            return [self._spawn()]
        return []

    def close(self) -> None:
        global _WORKER_RUNNER, _WORKER_FAULTS, _WORKER_RLIMIT, \
            _WORKER_HEARTBEAT
        if self._opened:
            _WORKER_RUNNER = None
            _WORKER_FAULTS = None
            _WORKER_RLIMIT = None
            _WORKER_HEARTBEAT = None
            self._opened = False


# ----------------------------------------------------------------------
# TCP transport (remote worker runners)
# ----------------------------------------------------------------------
def _encode_task(task):
    return list(task) if isinstance(task, tuple) else task


def decode_task(obj):
    """Deep list→tuple, inverting JSON's flattening of cell tuples."""
    if isinstance(obj, list):
        return tuple(decode_task(x) for x in obj)
    return obj


class _HostState:
    """Per-host ladder: consecutive failures, backoff, quarantine."""

    __slots__ = ("addr", "label", "failures", "next_attempt", "connected",
                 "dropped")

    def __init__(self, addr: Tuple[str, int]):
        self.addr = addr
        self.label = f"{addr[0]}:{addr[1]}"
        self.failures = 0
        self.next_attempt = 0.0
        self.connected = False
        self.dropped = False


class _TcpEndpoint(WorkerEndpoint):
    """One framed connection to a remote worker runner's serving child."""

    __slots__ = ("transport", "sock", "_host_state", "pid", "current",
                 "deadline", "last_progress", "clock_offset")

    stall_kind = "host_lost"
    where = "remote"

    def __init__(self, transport: "TcpTransport", host_state: _HostState,
                 sock: socket.socket, welcome: dict,
                 clock_offset: float = 0.0):
        self.transport = transport
        self._host_state = host_state
        self.sock = sock
        self.pid = welcome.get("pid")
        self.current = None
        self.deadline: Optional[float] = None
        self.last_progress: Optional[int] = None
        #: Estimated remote-minus-local wall-clock skew (seconds), from
        #: the handshake round trip; subtracted from reply record
        #: timestamps on ingest so remote spans line up with local ones.
        self.clock_offset = clock_offset

    @property
    def host(self) -> str:  # type: ignore[override]
        return self._host_state.label

    def assign(self, att, timeout: Optional[float]) -> None:
        att.attempts += 1
        self.current = att
        self.last_progress = None
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        frame = {"t": "run", "idx": att.idx,
                 "task": _encode_task(att.task),
                 "attempt": att.attempts,
                 "meta": self.transport.task_meta(att.task)}
        ctx = trace_context()
        if ctx is not None:
            frame["ctx"] = ctx
        send_frame(self.sock, frame)

    def stop(self, *, kill: bool = False) -> None:
        self._host_state.connected = False
        if not kill:
            try:
                send_frame(self.sock, {"t": "stop"})
            except EndpointLostError:
                pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def wait_handles(self) -> tuple:
        return (self.sock,)

    def drain_handle(self):
        return self.sock

    def readable(self, ready_set) -> bool:
        return self.sock in ready_set

    def recv(self):
        msg = recv_frame(self.sock)
        t = msg.get("t")
        if t == "hb":
            return ("hb", msg.get("idx"), msg.get("progress", 0),
                    msg.get("cell"))
        if t == "reply":
            # A completed round trip proves the host healthy: reset its
            # consecutive-failure ladder.
            self._host_state.failures = 0
            ok = bool(msg.get("ok"))
            payload = msg.get("payload")
            if ok:
                from .checkpoint import CheckpointError, decode_result
                try:
                    payload = decode_result(payload)
                except CheckpointError as exc:
                    raise EndpointLostError(
                        f"undecodable result from {self.host}: {exc}",
                        garbled=True) from None
            elif not isinstance(payload, dict):
                payload = {"error": str(payload), "kind": "error"}
            records = msg.get("records")
            if records and self.clock_offset:
                # Normalize remote wall clocks onto the supervisor's at
                # the ingest boundary, so both the live drain and the
                # interrupted-teardown drain see corrected times.
                for record in records:
                    if isinstance(record, dict) and "t" in record:
                        record["t"] = record["t"] - self.clock_offset
            return (msg.get("idx"), ok, payload, records)
        raise EndpointLostError(f"unexpected frame type {t!r} from "
                                f"{self.host}", garbled=True)

    def death(self, lost: Optional[EndpointLostError]):
        detail = str(lost) if lost is not None else "connection closed"
        return ("host_lost", f"host {self.host} lost: {detail}")


class TcpTransport(Transport):
    """Drive remote worker runners over framed TCP with host recovery.

    Parameters
    ----------
    hosts:
        ``[(host, port), ...]`` — one endpoint per entry (list a host
        twice for two remote workers; the runner forks one serving child
        per connection, capped by its ``--slots``).
    spec:
        The handshake payload from :func:`handshake_spec`.
    task_meta:
        ``task_meta(task) -> dict`` of side-channel context a remote
        needs to rebuild fork-inherited state (today: ``num_shards`` so
        the runner can deterministically reconstruct a shard plan and
        verify its digest).
    reconnect:
        :class:`~repro.runtime.retry.RetryPolicy` whose delays pace
        per-host reconnects instead of
        :data:`~repro.runtime.policy.HOST_BACKOFF`'s.  When a host is
        dropped is the policy's decision alone.
    """

    is_remote = True
    CONNECT_TIMEOUT = 5.0
    #: First welcome can require the runner to generate the workload
    #: trace, so the initial handshake window is generous...
    WELCOME_TIMEOUT = 300.0
    #: ...while mid-sweep reconnects must not stall the event loop.
    REVIVE_CONNECT_TIMEOUT = 1.0
    REVIVE_WELCOME_TIMEOUT = 5.0

    def __init__(self, hosts: Sequence[Tuple[str, int]], spec: dict, *,
                 task_meta: Optional[Callable[[Any], dict]] = None,
                 reconnect: Optional[RetryPolicy] = None):
        if not hosts:
            raise ConfigError("TcpTransport needs at least one host")
        self.hosts = [_HostState(tuple(addr)) for addr in hosts]
        self.spec = dict(spec)
        self.task_meta = task_meta or (lambda task: {})
        self._reconnect = reconnect
        self._config: Optional[WorkerConfig] = None

    def open(self, config: WorkerConfig) -> None:
        self._config = config

    # -- connection management -----------------------------------------
    def _connect(self, hs: _HostState, *, initial: bool) -> _TcpEndpoint:
        connect_timeout = (self.CONNECT_TIMEOUT if initial
                           else self.REVIVE_CONNECT_TIMEOUT)
        welcome_timeout = (self.WELCOME_TIMEOUT if initial
                           else self.REVIVE_WELCOME_TIMEOUT)
        sock = socket.create_connection(hs.addr, timeout=connect_timeout)
        try:
            sock.settimeout(welcome_timeout)
            hello = dict(self.spec)
            hello["t"] = "hello"
            hb = (self._config.heartbeat_interval
                  if self._config is not None else None)
            hello["heartbeat"] = hb
            hello_sent = time.time()
            send_frame(sock, hello)
            msg = recv_frame(sock)
            welcome_recv = time.time()
        except EndpointLostError as exc:
            sock.close()
            raise OSError(f"handshake with {hs.label} failed: {exc}") \
                from None
        except BaseException:
            sock.close()
            raise
        if msg.get("t") == "refused":
            sock.close()
            if msg.get("retryable"):
                raise OSError(f"host {hs.label} busy: "
                              f"{msg.get('reason', 'refused')}")
            raise HandshakeError.refused(hs.label, msg)
        if msg.get("t") != "welcome":
            sock.close()
            raise OSError(f"host {hs.label} sent unexpected "
                          f"{msg.get('t')!r} instead of welcome")
        sock.settimeout(FRAME_RECV_TIMEOUT)
        hs.connected = True
        # NTP-style skew estimate: the welcome's remote clock sample is
        # assumed taken at the round trip's midpoint.
        clock_offset = msg["now"] - (hello_sent + welcome_recv) / 2.0
        get_recorder().event("host.connected", host=hs.label,
                             worker_pid=msg.get("pid"),
                             release=msg.get("release"),
                             clock_skew_s=round(clock_offset, 6))
        logger.info("connected to remote worker %s (pid %s, "
                    "clock skew %+.3fs)", hs.label, msg.get("pid"),
                    clock_offset)
        return _TcpEndpoint(self, hs, sock, msg, clock_offset)

    def _note_failure(self, hs: _HostState, why: str) -> None:
        hs.connected = False
        hs.failures += 1
        delay = policy.host_failed(hs.label, hs.failures, why,
                                   self._reconnect)
        if delay is None:
            hs.dropped = True
        else:
            hs.next_attempt = time.monotonic() + delay

    # -- Transport interface -------------------------------------------
    def start(self, want: int) -> List[WorkerEndpoint]:
        endpoints: List[WorkerEndpoint] = []
        for hs in self.hosts:
            if hs.dropped:
                continue
            try:
                endpoints.append(self._connect(hs, initial=True))
            except HandshakeError as exc:
                if policy.host_refused(hs.label, str(exc), hs.failures,
                                       initial=True) == "abort":
                    for ep in endpoints:
                        ep.stop(kill=True)
                    raise
                hs.dropped = True
            except OSError as exc:
                self._note_failure(hs, str(exc))
        return endpoints

    def replace(self, endpoint, *, pending: int,
                stalled: bool) -> List[WorkerEndpoint]:
        hs = endpoint._host_state
        self._note_failure(hs, "stalled (heartbeat silence)" if stalled
                           else "connection lost")
        return []

    def revive(self, now: float) -> List[WorkerEndpoint]:
        out: List[WorkerEndpoint] = []
        for hs in self.hosts:
            if hs.dropped or hs.connected or now < hs.next_attempt:
                continue
            try:
                out.append(self._connect(hs, initial=False))
            except HandshakeError as exc:
                policy.host_refused(hs.label, str(exc), hs.failures,
                                    initial=False)
                hs.dropped = True
            except OSError as exc:
                self._note_failure(hs, str(exc))
        return out

    @property
    def exhausted(self) -> bool:
        return all(hs.dropped for hs in self.hosts)

    def close(self) -> None:
        for hs in self.hosts:
            hs.connected = False
