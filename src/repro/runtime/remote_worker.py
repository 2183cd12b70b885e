"""Remote worker runner: serve sweep cells to a supervisor over TCP.

::

    python -m repro.runtime.remote_worker --listen 0.0.0.0:7301 \\
        --slots 2 --trace-cache ~/.cache/repro/traces

One runner process listens on a socket.  For every accepted connection
it performs the versioned handshake (see
:mod:`repro.runtime.transport`): the client's ``hello`` must match this
runner's repro release, wire protocol and checkpoint journal version,
name a workload the runner can generate, carry that workload's exact
trace identity, and request a kernel mode the runner honours — any
mismatch is answered with a structured ``refused`` frame naming both
sides' values, so a stale host can never silently compute divergent
results.  Accepted connections are served by a forked child (one remote
worker per connection, capped by ``--slots``); children share the
runner's cached trace and :class:`~repro.analysis.engine.SharedPrecompute`
pages through fork, so serving N connections costs one trace generation.

The serving child speaks the supervisor's task/reply/heartbeat protocol
over length-prefixed JSON frames: ``run`` frames carry a grid cell (plus
``meta.num_shards`` for shard subtasks, from which the child rebuilds
the shard plan deterministically and *verifies its digest* against the
one embedded in the task — a digest mismatch is a structured error
reply, never a silently different partition); replies carry the
checkpoint-encoded result and the child's buffered telemetry records; a
heartbeat thread reports the progress counter so the supervisor's stall
watchdog can tell a slow remote cell from a dead host.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import signal
import socket
import sys
import threading
import time
from typing import Dict, Optional, Tuple

from ..errors import ConfigError, ReproError
from ..obs import Recorder, apply_trace_context, use_recorder
from . import signals
from .checkpoint import (
    JOURNAL_VERSION,
    CheckpointError,
    encode_result,
)
from .policy import classify_exception, task_attr
from .resources import peak_rss_bytes
from .transport import (
    EndpointLostError,
    PROTOCOL_VERSION,
    decode_task,
    recv_frame,
    send_frame,
)

logger = logging.getLogger(__name__)

#: How long a connected client may take to send its ``hello``.
HELLO_TIMEOUT = 10.0


def _release() -> str:
    import repro
    return repro.__version__


def parse_listen(spec: str) -> Tuple[str, int]:
    """Parse ``--listen HOST:PORT`` (port 0 binds an ephemeral port)."""
    host, sep, port = (spec or "").rpartition(":")
    if not sep or not host:
        raise ConfigError(f"invalid --listen {spec!r}: expected host:port")
    try:
        port_n = int(port)
    except ValueError:
        raise ConfigError(f"invalid port in --listen {spec!r}") from None
    if not 0 <= port_n < 65536:
        raise ConfigError(f"port out of range in --listen {spec!r}")
    return host, port_n


class RemoteWorkerHost:
    """One runner process: handshake, fork a serving child per client."""

    def __init__(self, listen: Tuple[str, int], *, slots: int = 2,
                 cache_dir: Optional[str] = None,
                 kernel: str = "auto"):
        if slots < 1:
            raise ConfigError(f"--slots must be >= 1, got {slots}")
        self.listen = listen
        self.slots = slots
        self.cache_dir = cache_dir
        self.kernel = kernel
        self._engines: Dict[Tuple[str, str], object] = {}
        self._children: Dict[int, float] = {}
        self._sock: Optional[socket.socket] = None
        self._stop = False

    # -- lifecycle -----------------------------------------------------
    def bind(self) -> Tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(self.listen)
        sock.listen(16)
        sock.settimeout(0.5)  # poll the stop flag between accepts
        self._sock = sock
        return sock.getsockname()[:2]

    def shutdown(self) -> None:
        self._stop = True

    def serve_forever(self) -> None:
        if self._sock is None:
            self.bind()
        try:
            while not self._stop:
                self._reap_children()
                try:
                    conn, addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us
                try:
                    self._handle_connection(conn, addr)
                except Exception:
                    logger.exception("connection from %s failed", addr)
                    conn.close()
        finally:
            self._sock.close()
            for pid in list(self._children):
                try:
                    os.kill(pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
            self._reap_children()

    def _reap_children(self) -> None:
        for pid in list(self._children):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                self._children.pop(pid, None)

    # -- handshake -----------------------------------------------------
    def _engine(self, workload: str, kernel: str):
        """The cached serving engine for one (workload, kernel) pair.

        Built *before* forking the serving child so the trace and its
        precompute are shared copy-on-write by every child.
        """
        key = (workload, kernel)
        if key not in self._engines:
            from ..analysis.engine import SweepEngine
            logger.info("preparing workload %s (kernel=%s)...", workload,
                        kernel)
            engine = SweepEngine.for_workload(workload,
                                              cache_dir=self.cache_dir,
                                              kernel=kernel)
            engine.precompute  # force the derived columns now
            self._engines[key] = engine
        return self._engines[key]

    def _mine(self, kernel: str) -> dict:
        from ..kernels import effective_kernel_mode
        pinned = (effective_kernel_mode(self.kernel)
                  if self.kernel != "auto" else kernel)
        return {"proto": PROTOCOL_VERSION, "release": _release(),
                "journal_v": JOURNAL_VERSION, "kernel": pinned}

    def _check_hello(self, hello: dict):
        """Validate one ``hello``; returns ``(engine, None)`` or
        ``(None, refused_frame)``."""
        from ..kernels import effective_kernel_mode

        def refused(reason: str, *, retryable: bool = False) -> dict:
            theirs = {k: hello.get(k) for k in
                      ("proto", "release", "journal_v", "kernel",
                       "trace_key", "workload")}
            return {"t": "refused", "reason": reason,
                    "retryable": retryable,
                    "host": self._mine(str(hello.get("kernel"))),
                    "client": theirs}

        if hello.get("t") != "hello":
            return None, refused(f"expected hello, got {hello.get('t')!r}")
        if hello.get("proto") != PROTOCOL_VERSION:
            return None, refused(
                f"protocol version mismatch: host speaks "
                f"{PROTOCOL_VERSION}, client sent {hello.get('proto')!r}")
        if hello.get("release") != _release():
            return None, refused(
                f"repro release mismatch: host runs {_release()}, client "
                f"runs {hello.get('release')!r}")
        if hello.get("journal_v") != JOURNAL_VERSION:
            return None, refused(
                f"journal format mismatch: host writes v{JOURNAL_VERSION}, "
                f"client expects v{hello.get('journal_v')!r}")
        kernel = hello.get("kernel")
        if kernel not in ("vectorized", "interpreted"):
            return None, refused(
                f"invalid kernel mode {kernel!r}: expected the client's "
                f"*effective* mode (vectorized or interpreted)")
        if self.kernel != "auto" and \
                effective_kernel_mode(self.kernel) != kernel:
            return None, refused(
                f"kernel mode mismatch: host is pinned to "
                f"--kernel {self.kernel} "
                f"({effective_kernel_mode(self.kernel)}), client requires "
                f"{kernel}")
        if effective_kernel_mode(kernel) != kernel:
            return None, refused(
                f"kernel mode {kernel!r} unavailable on this host "
                f"(effective mode is {effective_kernel_mode(kernel)!r})")
        workload = hello.get("workload")
        if not workload:
            return None, refused(
                "client trace has no workload name; remote execution "
                "needs a named workload the host can regenerate")
        try:
            engine = self._engine(str(workload), kernel)
        except ReproError as exc:
            return None, refused(f"cannot serve workload "
                                 f"{workload!r}: {exc}")
        # Trace identity: the client keys its checkpoint journal by
        # either the workload cache key (``for_workload`` engines) or a
        # content hash of the trace arrays (CLI sweeps over a generated
        # trace).  Accept both — each one proves we regenerated the
        # byte-identical trace.
        from ..trace.cache import WorkloadTraceCache, workload_cache_key
        wl = WorkloadTraceCache(self.cache_dir)._resolve(str(workload))
        accepted = {workload_cache_key(wl), _content_trace_key(engine)}
        if hello.get("trace_key") not in accepted:
            return None, refused(
                f"trace identity mismatch for workload {workload!r}: host "
                f"generated {sorted(accepted)!r}, client sent "
                f"{hello.get('trace_key')!r}")
        return engine, None

    def _handle_connection(self, conn: socket.socket, addr) -> None:
        if len(self._children) >= self.slots:
            send_frame(conn, {"t": "refused", "retryable": True,
                              "reason": f"all {self.slots} slot(s) busy",
                              "host": self._mine("auto"), "client": {}})
            conn.close()
            return
        conn.settimeout(HELLO_TIMEOUT)
        try:
            hello = recv_frame(conn)
        except EndpointLostError as exc:
            logger.warning("no hello from %s: %s", addr, exc)
            conn.close()
            return
        engine, refusal = self._check_hello(hello)
        if refusal is not None:
            logger.warning("refusing %s: %s", addr, refusal["reason"])
            try:
                send_frame(conn, refusal)
            except EndpointLostError:
                pass
            conn.close()
            return
        pid = os.fork()
        if pid == 0:  # serving child
            code = 0
            try:
                self._sock.close()
                serve_connection(conn, engine, hello)
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        self._children[pid] = time.monotonic()
        conn.close()
        logger.info("serving %s from child pid %d (%d/%d slots)",
                    addr, pid, len(self._children), self.slots)


def _content_trace_key(engine) -> str:
    """The content-hash trace identity CLI-built engines fall back to."""
    from ..analysis.engine import SweepEngine
    probe = SweepEngine(engine.trace)
    return probe.trace_key


def _hb_loop(conn, send_lock, current, interval: float) -> None:
    """Daemon thread: frame the worker heartbeat over the socket."""
    while True:
        time.sleep(interval)
        cur = current[0]
        if cur is None:
            continue
        idx, task = cur
        try:
            with send_lock:
                send_frame(conn, {"t": "hb", "idx": idx,
                                  "progress": signals.progress_count(),
                                  "cell": task_attr(task)})
        except EndpointLostError:
            return  # socket gone: the child is exiting


def _prepare_task(pre, task, meta: dict):
    """Decode one wire task; rebuild and verify shard plans by digest.

    Shard subtasks reference a plan the supervisor built before
    dispatch.  The child reconstructs it deterministically from the
    task's block size, partition dimension and ``meta.num_shards`` —
    and then *requires* the digests to match, so a host whose plan
    construction diverged (different trace, different LPT tie-break)
    errors out instead of computing a partition of the wrong blocks.
    """
    from ..analysis.engine import partition_dim_for
    from ..mem.addresses import BlockMap

    task = decode_task(task)
    kind = task[0] if isinstance(task, tuple) and task else None
    if isinstance(kind, str) and kind.endswith("-shard"):
        digest = task[3]
        num_shards = int((meta or {}).get("num_shards", 0))
        if num_shards < 1:
            raise ConfigError(
                f"shard task {task!r} arrived without meta.num_shards")
        plan = pre.shard_plan(BlockMap(task[1]), num_shards,
                              dim=partition_dim_for(task))
        if plan.digest != digest:
            raise ConfigError(
                f"shard plan digest mismatch for {task!r}: host built "
                f"{plan.digest!r}, client dispatched {digest!r} — the "
                f"hosts are not partitioning the same trace")
    return task


def serve_connection(conn: socket.socket, engine, hello: dict) -> None:
    """Serve one supervisor connection (runs in the forked child)."""
    signals.reset_in_child()
    conn.settimeout(None)
    pre = engine.precompute
    recorder = Recorder.buffering()
    send_lock = threading.Lock()
    current: list = [None]
    heartbeat = hello.get("heartbeat")
    with use_recorder(recorder):
        # "now" lets the client estimate this host's wall-clock skew
        # from the handshake round trip and normalize span times on
        # ingest (see TcpTransport._connect).
        send_frame(conn, {"t": "welcome", "pid": os.getpid(),
                          "release": _release(),
                          "host": f"{socket.gethostname()}:{os.getpid()}",
                          "now": time.time()})
        if heartbeat:
            threading.Thread(target=_hb_loop,
                             args=(conn, send_lock, current,
                                   float(heartbeat)),
                             name="repro-remote-heartbeat",
                             daemon=True).start()
        while True:
            try:
                msg = recv_frame(conn)
            except EndpointLostError:
                return
            t = msg.get("t")
            if t == "stop":
                return
            if t != "run":
                continue
            idx, attempt = msg.get("idx"), msg.get("attempt")
            wire_task = msg.get("task")
            current[0] = (idx, wire_task)
            try:
                task = _prepare_task(pre, wire_task, msg.get("meta"))
                current[0] = (idx, task)
                with apply_trace_context(msg.get("ctx")):
                    result = pre.run_cell(task)
                ok, payload = True, encode_result(result)
            except BaseException as exc:
                if isinstance(exc, (SystemExit, KeyboardInterrupt)):
                    raise
                ok, payload = False, classify_exception(exc)
            current[0] = None
            recorder.metric("worker.ru_maxrss_kb",
                            peak_rss_bytes() // 1024, unit="kb",
                            cell=task_attr(wire_task))
            records = recorder.drain()
            try:
                with send_lock:
                    send_frame(conn, {"t": "reply", "idx": idx, "ok": ok,
                                      "payload": payload,
                                      "records": records or None})
            except EndpointLostError:
                return


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.runtime.remote_worker",
        description="Serve sweep cells to remote supervisors over TCP.")
    parser.add_argument("--listen", required=True,
                        help="HOST:PORT to listen on (port 0 = ephemeral)")
    parser.add_argument("--slots", type=int, default=2,
                        help="max concurrent serving children (default 2)")
    parser.add_argument("--trace-cache", default=None, metavar="DIR",
                        help="on-disk trace cache shared with other "
                             "runners (strongly recommended)")
    parser.add_argument("--kernel", default="auto",
                        choices=("auto", "vectorized", "interpreted"),
                        help="pin the kernel mode this host will serve; "
                             "'auto' honours whatever the client requests")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="[remote-worker] %(levelname)s %(message)s")
    try:
        host = RemoteWorkerHost(parse_listen(args.listen),
                                slots=args.slots,
                                cache_dir=args.trace_cache,
                                kernel=args.kernel)
        bound = host.bind()
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _on_term(signum, frame):
        host.shutdown()

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    # The supervisor-facing contract: one parseable line announcing the
    # bound address (tests and scripts read the ephemeral port off it).
    print(f"listening on {bound[0]}:{bound[1]}", flush=True)
    try:
        host.serve_forever()
    except OSError as exc:  # pragma: no cover - listener-level failure
        if exc.errno not in (errno.EBADF, errno.EINTR):
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
