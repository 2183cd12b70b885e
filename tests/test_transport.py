"""Multi-host transport suite: framing, handshakes, host loss, equivalence.

Covers the acceptance criteria of the fault-tolerant multi-host layer:

* a loopback distributed sweep over two TCP worker hosts produces
  results bit-identical to a single-host serial run, for protocol,
  classifier and finite cells, sharded and unsharded, vectorized and
  interpreted;
* killing a remote host mid-sweep reassigns its cells to the survivors
  and the sweep still converges bit-identically;
* a handshake mismatch (wrong release, wrong kernel mode) is refused
  with a structured :class:`~repro.errors.HandshakeError` naming both
  sides' values;
* torn frames — a reply channel dying mid-message — are classified as
  endpoint loss (never a supervisor crash), locally and over TCP;
* when every remote host is dead and there are no local workers, the
  sweep degrades to serial in-process execution instead of hanging.

Remote hosts here are real ``repro.runtime.remote_worker`` subprocesses
listening on ephemeral loopback ports; tests skip if the sandbox forbids
loopback sockets.
"""

import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ConfigError, HandshakeError
from repro.runtime.retry import RetryPolicy
from repro.runtime.supervisor import Supervisor
from repro.runtime.transport import (
    EndpointLostError,
    TcpTransport,
    WorkerConfig,
    _ForkEndpoint,
    handshake_spec,
    parse_hosts,
    recv_frame,
    send_frame,
)

WORKLOAD = "MATMUL24"

#: Cells covering every remotable kind: classifier, compare, protocol
#: (delayed and on-the-fly) and a set-associative finite cache.
CELLS = [
    ("classify", 64, "dubois"),
    ("classify", 32, "eggers"),
    ("compare", 32, None),
    ("protocol", 64, "SD"),
    ("protocol", 32, "OTF"),
    ("finite", 16, "c256w4"),
]


def _loopback_available() -> bool:
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.bind(("127.0.0.1", 0))
        s.close()
        return True
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    not _loopback_available(),
    reason="loopback sockets unavailable in this environment")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("trace-cache"))


def _start_runner(cache_dir, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.runtime.remote_worker",
         "--listen", "127.0.0.1:0", "--slots", "4",
         "--trace-cache", cache_dir, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True)
    line = proc.stdout.readline()
    m = re.search(r"listening on ([\d.]+):(\d+)", line or "")
    assert m, f"runner failed to start: {line!r}"
    return proc, f"{m.group(1)}:{m.group(2)}"


def _kill_runner(proc):
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()


@pytest.fixture(scope="module")
def runners(cache_dir):
    """Two live remote worker runner processes (module-shared: their
    per-(workload, kernel) engine caches amortize trace generation)."""
    started = [_start_runner(cache_dir) for _ in range(2)]
    yield [addr for _, addr in started]
    for proc, _ in started:
        _kill_runner(proc)


def _engine(cache_dir, **kwargs):
    from repro.analysis.engine import SweepEngine

    return SweepEngine.for_workload(WORKLOAD, cache_dir=cache_dir, **kwargs)


def _encode(results):
    from repro.runtime.checkpoint import encode_result
    import json

    return json.dumps([encode_result(r) for r in results],
                      sort_keys=True).encode()


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def _pair(self):
        return socket.socketpair()

    def test_round_trip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"t": "hello", "nested": {"x": [1, 2, 3]}})
            assert recv_frame(b) == {"t": "hello", "nested": {"x": [1, 2, 3]}}
        finally:
            a.close()
            b.close()

    def test_eof_between_frames_is_clean_loss(self):
        a, b = self._pair()
        a.close()
        try:
            with pytest.raises(EndpointLostError) as exc_info:
                recv_frame(b)
            assert not exc_info.value.garbled
        finally:
            b.close()

    def test_torn_frame_is_garbled(self):
        """A frame whose sender died mid-message: the length prefix
        promises more bytes than ever arrive."""
        a, b = self._pair()
        try:
            a.sendall(struct.pack(">I", 100) + b'{"t": "re')
            a.close()
            with pytest.raises(EndpointLostError) as exc_info:
                recv_frame(b)
            assert exc_info.value.garbled
        finally:
            b.close()

    def test_torn_header_is_garbled(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00")  # half a length prefix
            a.close()
            with pytest.raises(EndpointLostError) as exc_info:
                recv_frame(b)
            assert exc_info.value.garbled
        finally:
            b.close()

    def test_garbage_payload_is_garbled(self):
        a, b = self._pair()
        try:
            payload = b"\xff\xfenot json"
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(EndpointLostError) as exc_info:
                recv_frame(b)
            assert exc_info.value.garbled
        finally:
            a.close()
            b.close()

    def test_oversized_frame_is_garbled(self):
        a, b = self._pair()
        try:
            a.sendall(struct.pack(">I", 1 << 31))
            with pytest.raises(EndpointLostError) as exc_info:
                recv_frame(b)
            assert exc_info.value.garbled
        finally:
            a.close()
            b.close()

    def test_non_dict_frame_is_garbled(self):
        a, b = self._pair()
        try:
            payload = b'[1, 2, 3]'
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(EndpointLostError) as exc_info:
                recv_frame(b)
            assert exc_info.value.garbled
        finally:
            a.close()
            b.close()


class TestForkEndpointTornFrames:
    """Satellite of the torn-frame contract: the *local* reply pipe too.

    The supervisor once caught only ``(EOFError, OSError)`` around
    ``conn.recv()`` — a torn pickle frame (worker killed mid-``send``)
    raised ``UnpicklingError`` and crashed the whole sweep.  The fork
    endpoint now classifies both shapes as endpoint loss."""

    def test_closed_pipe_is_clean_loss(self):
        import multiprocessing

        a, b = multiprocessing.Pipe()
        a.close()

        class _Stub:
            conn = b

        with pytest.raises(EndpointLostError) as exc_info:
            _ForkEndpoint.recv(_Stub())
        assert not exc_info.value.garbled
        b.close()

    def test_torn_pickle_is_garbled_loss(self):
        import multiprocessing

        a, b = multiprocessing.Pipe()
        a.send_bytes(b"\x80\x04not really a pickle")

        class _Stub:
            conn = b

        with pytest.raises(EndpointLostError) as exc_info:
            _ForkEndpoint.recv(_Stub())
        assert exc_info.value.garbled
        a.close()
        b.close()


# ----------------------------------------------------------------------
# host specs
# ----------------------------------------------------------------------
class TestParseHosts:
    def test_parses_comma_list(self):
        assert parse_hosts("a:1, b:2 ,c:65535") == \
            [("a", 1), ("b", 2), ("c", 65535)]

    def test_duplicates_mean_two_connections(self):
        assert parse_hosts("h:9,h:9") == [("h", 9), ("h", 9)]

    @pytest.mark.parametrize("bad", ["", "justahost", "h:", ":7",
                                     "h:seven", "h:0", "h:70000"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_hosts(bad)

    def test_listen_spec(self):
        from repro.runtime.remote_worker import parse_listen

        assert parse_listen("0.0.0.0:0") == ("0.0.0.0", 0)
        with pytest.raises(ConfigError):
            parse_listen("nocolon")


# ----------------------------------------------------------------------
# handshake refusal
# ----------------------------------------------------------------------
class TestHandshake:
    def _spec(self, cache_dir, **overrides):
        from repro.kernels import effective_kernel_mode

        engine = _engine(cache_dir)
        spec = handshake_spec(trace_key=engine.trace_key,
                              kernel=effective_kernel_mode("auto"),
                              workload=WORKLOAD)
        spec.update(overrides)
        return spec

    def test_wrong_release_refused_naming_both_sides(self, cache_dir,
                                                     runners):
        import repro

        tr = TcpTransport(parse_hosts(runners[0]),
                          self._spec(cache_dir, release="0.0.0-stale"))
        tr.open(WorkerConfig(lambda t: t, fault_plan=None,
                             rlimit_bytes=None, heartbeat_interval=None))
        with pytest.raises(HandshakeError) as exc_info:
            tr.start(1)
        err = exc_info.value
        assert err.host == runners[0]
        assert "release" in str(err)
        # Structured: both sides' values, not just a verdict.
        assert err.local.get("release") == "0.0.0-stale"
        assert err.remote.get("release") == repro.__version__
        assert "0.0.0-stale" in str(err)
        assert repro.__version__ in str(err)

    def test_wrong_trace_key_refused(self, cache_dir, runners):
        tr = TcpTransport(parse_hosts(runners[0]),
                          self._spec(cache_dir, trace_key="tampered"))
        tr.open(WorkerConfig(lambda t: t, fault_plan=None,
                             rlimit_bytes=None, heartbeat_interval=None))
        with pytest.raises(HandshakeError, match="trace identity"):
            tr.start(1)

    def test_kernel_pin_mismatch_refused(self, cache_dir):
        """A runner pinned to --kernel interpreted refuses a client that
        requires the vectorized path, naming both modes."""
        pytest.importorskip("numpy")
        proc, addr = _start_runner(cache_dir, "--kernel", "interpreted")
        try:
            tr = TcpTransport(parse_hosts(addr),
                              self._spec(cache_dir, kernel="vectorized"))
            tr.open(WorkerConfig(lambda t: t, fault_plan=None,
                                 rlimit_bytes=None,
                                 heartbeat_interval=None))
            with pytest.raises(HandshakeError) as exc_info:
                tr.start(1)
            msg = str(exc_info.value)
            assert "kernel" in msg
            assert "interpreted" in msg and "vectorized" in msg
        finally:
            _kill_runner(proc)

    def test_engine_surfaces_refusal(self, cache_dir, runners,
                                     monkeypatch):
        """The refusal crosses the engine API too (fail loud at start,
        not quietly degraded)."""
        import repro

        monkeypatch.setattr(repro, "__version__", "9.9.9-phantom")
        engine = _engine(cache_dir, hosts=runners[0], timeout=10.0)
        with pytest.raises(HandshakeError, match="release"):
            engine.run_grid(CELLS[:2])


# ----------------------------------------------------------------------
# loopback equivalence (the tentpole acceptance)
# ----------------------------------------------------------------------
class TestLoopbackEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self, cache_dir):
        return {
            kernel: _engine(cache_dir, kernel=kernel).run_grid(CELLS)
            for kernel in ("auto", "interpreted")
        }

    @pytest.mark.parametrize("kernel", ["auto", "interpreted"])
    def test_two_host_sweep_bit_identical(self, cache_dir, runners,
                                          baseline, kernel):
        """jobs=1 + two hosts: every cell crosses the wire; results and
        their canonical encodings match the serial run exactly."""
        engine = _engine(cache_dir, jobs=1, timeout=60.0,
                         hosts=",".join(runners), kernel=kernel)
        got = engine.run_grid(CELLS)
        assert got == baseline[kernel]
        assert _encode(got) == _encode(baseline[kernel])

    def test_sharded_two_host_sweep_bit_identical(self, cache_dir,
                                                  runners, baseline):
        """Shard subtasks carry plan digests; the hosts rebuild each
        plan from meta and verify the digest before running."""
        engine = _engine(cache_dir, jobs=1, shards=2, timeout=60.0,
                         hosts=",".join(runners))
        got = engine.run_grid(CELLS)
        assert got == baseline["auto"]
        assert _encode(got) == _encode(baseline["auto"])

    def test_mixed_local_and_remote_bit_identical(self, cache_dir,
                                                  runners, baseline):
        engine = _engine(cache_dir, jobs=2, timeout=60.0,
                         hosts=runners[0])
        got = engine.run_grid(CELLS)
        assert got == baseline["auto"]


# ----------------------------------------------------------------------
# host loss
# ----------------------------------------------------------------------
class TestHostLoss:
    def test_dead_host_at_start_falls_back_serial(self, cache_dir):
        """No runner ever listened: the host ladder drops it after its
        connect budget and the sweep completes serially in-process."""
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()  # nobody listening on this port now

        baseline = _engine(cache_dir).run_grid(CELLS[:3])
        engine = _engine(cache_dir, jobs=1, timeout=10.0,
                         hosts=f"127.0.0.1:{port}")
        got = engine.run_grid(CELLS[:3])
        assert got == baseline

    def test_closed_port_backs_off_three_times_then_drops(self):
        """The host ladder through a real TcpTransport: connect failures
        1-3 each schedule a backoff reconnect, the 4th drops the host."""
        from repro.obs import Recorder, use_recorder

        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()  # nobody listening on this port now

        tr = TcpTransport([("127.0.0.1", port)], {"proto": 1},
                          reconnect=RetryPolicy(base_delay=0.01,
                                                max_delay=0.01))
        (hs,) = tr.hosts
        rec = Recorder.buffering()
        ladder = []
        with use_recorder(rec):
            tr.open(WorkerConfig(lambda task: task))
            assert tr.start(1) == []
            ladder.append((hs.failures, tr.exhausted))
            while not tr.exhausted and len(ladder) < 10:
                time.sleep(0.02)  # past the backoff window
                assert tr.revive(time.monotonic()) == []
                ladder.append((hs.failures, tr.exhausted))
        assert ladder == [(1, False), (2, False), (3, False), (4, True)]
        dropped = [r for r in rec.drain() if r.get("name") == "host.dropped"]
        assert len(dropped) == 1
        assert dropped[0]["attrs"]["failures"] == 4

    def test_kill_one_host_mid_sweep_converges(self, cache_dir):
        """SIGKILL one of two hosts while it holds cells: its work is
        reassigned to the survivor and the merged results stay
        bit-identical (the ISSUE's chaos acceptance, deterministic
        flavour: the interpreted kernel makes the sweep long enough
        that the kill always lands mid-flight)."""
        baseline = _engine(cache_dir,
                           kernel="interpreted").run_grid(CELLS)
        p1, a1 = _start_runner(cache_dir)
        p2, a2 = _start_runner(cache_dir)
        try:
            engine = _engine(cache_dir, jobs=1, timeout=5.0,
                             hosts=f"{a1},{a2}", kernel="interpreted")
            killed = threading.Event()

            def _has_serving_child(pid):
                # The runner forks one serving child per accepted
                # connection; scan /proc for a child of the victim.
                for entry in os.listdir("/proc"):
                    if not entry.isdigit():
                        continue
                    try:
                        with open(f"/proc/{entry}/stat") as fh:
                            if int(fh.read().split()[3]) == pid:
                                return True
                    except (OSError, ValueError, IndexError):
                        continue
                return False

            def _kill_when_busy():
                # Fire once the victim accepted work (its serving child
                # exists), not on a wall-clock guess.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if _has_serving_child(p2.pid):
                        break
                    time.sleep(0.02)
                _kill_runner(p2)
                killed.set()

            killer = threading.Thread(target=_kill_when_busy, daemon=True)
            killer.start()
            got = engine.run_grid(CELLS)
            killer.join(timeout=35.0)
            assert killed.is_set(), "victim host was never killed"
            assert got == baseline
            assert _encode(got) == _encode(baseline)
        finally:
            for p in (p1, p2):
                _kill_runner(p)

    def test_torn_tcp_reply_reassigned(self, cache_dir):
        """A host that dies mid-reply (length prefix sent, payload never
        finished) is a garbled endpoint loss: the supervisor reassigns
        the cell instead of crashing or waiting forever."""
        from repro.classify.breakdown import DuboisBreakdown
        from repro.runtime.checkpoint import encode_result

        bd = DuboisBreakdown(pc=1, cts=2, cfs=3, pts=4, pfs=5,
                             data_refs=60)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        first_conn = threading.Event()

        def fake_runner():
            served = 0
            while served < 2:
                conn, _ = listener.accept()
                served += 1
                hello = recv_frame(conn)
                assert hello["t"] == "hello"
                send_frame(conn, {"t": "welcome", "pid": 4242,
                                  "release": hello["release"],
                                  "now": time.time()})
                if served == 1:
                    first_conn.set()
                    msg = recv_frame(conn)  # the first task
                    # Torn reply: promise 64 KiB, deliver 10 bytes, die.
                    conn.sendall(struct.pack(">I", 65536) + b"0123456789")
                    conn.close()
                    continue
                while True:
                    try:
                        msg = recv_frame(conn)
                    except EndpointLostError:
                        break
                    if msg["t"] == "stop":
                        break
                    if msg["t"] != "run":
                        continue
                    send_frame(conn, {
                        "t": "reply", "idx": msg["idx"], "ok": True,
                        "payload": encode_result(bd), "records": None})
                conn.close()

        server = threading.Thread(target=fake_runner, daemon=True)
        server.start()
        try:
            spec = {"proto": 1, "release": "x", "journal_v": 0,
                    "kernel": "interpreted", "trace_key": "k",
                    "workload": "w"}
            tr = TcpTransport(
                [("127.0.0.1", port)], spec,
                reconnect=RetryPolicy(max_attempts=4, base_delay=0.01,
                                      max_delay=0.05))
            sup = Supervisor(lambda t: bd, jobs=1, transports=[tr],
                             retry=RetryPolicy(max_attempts=3,
                                               base_delay=0.01,
                                               max_delay=0.05),
                             timeout=10.0)
            results = sup.run(["cell-a", "cell-b"])
            assert results == [bd, bd]
            assert first_conn.is_set()
        finally:
            listener.close()
        server.join(timeout=10.0)


# ----------------------------------------------------------------------
# checkpoint interop
# ----------------------------------------------------------------------
class TestDistributedCheckpoints:
    def test_remote_cells_journal_and_resume_locally(self, cache_dir,
                                                     runners, tmp_path):
        """Cells computed on remote hosts land in the same checkpoint
        journal --resume reads; a resumed local run re-runs nothing."""
        ckpt = str(tmp_path / "ckpt")
        engine = _engine(cache_dir, jobs=1, timeout=60.0,
                         hosts=",".join(runners), checkpoint_dir=ckpt)
        first = engine.run_grid(CELLS[:4])

        resumed = _engine(cache_dir, checkpoint_dir=ckpt)
        ran = []
        pre = resumed.precompute
        original = pre.run_cell
        pre.run_cell = lambda c: (ran.append(c), original(c))[1]
        assert resumed.run_grid(CELLS[:4]) == first
        assert ran == []
