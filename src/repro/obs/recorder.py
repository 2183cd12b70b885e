"""Structured telemetry recorder: spans, metrics, events and logs as JSONL.

The :class:`Recorder` is the single write path of the observability layer
(:mod:`repro.obs`): every instrumented site in the engine, supervisor,
trace cache and checkpoint journal asks :func:`get_recorder` for the
process-current recorder and emits through it.  When no run is being
recorded the current recorder is the :data:`NULL_RECORDER`, whose every
method is a no-op — instrumentation costs a global read and a method
call, nothing else, which is what keeps the telemetry overhead budget
(< 3 % end to end, see ``benchmarks/bench_throughput.py``).

Record shapes (all one JSON object per line, schema-checked against
``telemetry.schema.json``):

* **span** — a timed operation: ``{"kind": "span", "name": "cell.run",
  "t": <wall start>, "dur_s": ..., "status": "ok"|"error", "attrs": {...}}``.
  Durations come from ``time.monotonic()``; ``t`` is the wall-clock start
  for cross-process ordering.
* **metric** — a named measurement: ``{"kind": "metric", "name":
  "cell.events_per_sec", "value": ..., "unit": ..., "attrs": {...}}``.
* **event** — a point-in-time occurrence: ``{"kind": "event", "name":
  "task.retry", "level": "warning", "attrs": {...}}``.
* **log** — a stdlib logging record bridged into the stream via
  :class:`TelemetryLogHandler`.

Workers do not write files: a forked worker swaps in a *buffering*
recorder (:meth:`Recorder.buffering`) whose records are drained and
shipped back over the supervisor's existing reply pipe, then merged into
the parent stream by :meth:`Recorder.ingest` — sharded and degraded runs
therefore produce one coherent timeline in one ``events.jsonl``.

**Tracing.** Once :meth:`Recorder.set_trace_context` installs a trace
id, every span record is additionally stamped with ``trace_id``, a fresh
``span_id`` and the ``parent_id`` of the innermost open span (or the
ambient parent a worker inherited from its assign message); events and
metrics carry ``trace_id``/``parent_id`` so they attach to the span that
emitted them.  :func:`trace_context` captures the current position for a
dispatch message and :func:`apply_trace_context` installs it around one
task in a worker, which is how the supervisor and its forked workers
emit one causal span tree per sweep (see :mod:`repro.obs.tracing`).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Version stamped into every record (and checked by the schema).
#: Trace ids (``trace_id``/``span_id``/``parent_id``) are *optional*
#: additive fields and did not bump it — see DESIGN.md, "telemetry
#: schema versioning".
SCHEMA_VERSION = 1


def new_span_id() -> str:
    """A fresh 64-bit hex span id (collision-safe across processes)."""
    return os.urandom(8).hex()


def _json_default(obj: Any) -> Any:
    """Last-resort JSON coercion so telemetry never crashes a sweep."""
    try:
        import numpy as np

        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    return repr(obj)


class _NullSpan:
    """The do-nothing span of the :data:`NULL_RECORDER`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Discard attributes (the run is not being recorded)."""


NULL_SPAN = _NullSpan()


class NullRecorder:
    """No-op recorder installed while no run is being recorded.

    Mirrors the full :class:`Recorder` surface so instrumented code never
    branches on "is telemetry on" — it just emits.
    """

    active = False
    trace_id = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def set_trace_context(self, trace_id, parent_id=None) -> None:
        pass

    def current_span_id(self):
        return None

    def span_complete(self, name: str, dur_s: float, *,
                      status: str = "ok", t: Optional[float] = None,
                      **attrs) -> None:
        pass

    def metric(self, name: str, value, unit: Optional[str] = None,
               **attrs) -> None:
        pass

    def event(self, name: str, *, level: str = "info", **attrs) -> None:
        pass

    def log(self, level: str, logger: str, message: str) -> None:
        pass

    def ingest(self, records: Iterable[dict]) -> None:
        pass

    def drain(self) -> List[dict]:
        return []

    def add_listener(self, listener: Callable[[dict], None]) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide no-op recorder (a singleton; never close it).
NULL_RECORDER = NullRecorder()

_current: Any = NULL_RECORDER


def get_recorder():
    """The recorder instrumented code should emit through right now."""
    return _current


def set_recorder(recorder) -> Any:
    """Install ``recorder`` (or the null recorder for ``None``) globally."""
    global _current
    _current = recorder if recorder is not None else NULL_RECORDER
    return _current


@contextlib.contextmanager
def use_recorder(recorder):
    """Scope ``recorder`` as the current one, restoring the previous."""
    previous = _current
    set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


def trace_context() -> Optional[dict]:
    """The current trace position, as a dict a dispatch message can carry.

    ``None`` when telemetry is off or no trace is active.
    """
    rec = get_recorder()
    if not rec.active or rec.trace_id is None:
        return None
    ctx = {"trace_id": rec.trace_id}
    parent = rec.current_span_id()
    if parent is not None:
        ctx["parent_id"] = parent
    return ctx


@contextlib.contextmanager
def apply_trace_context(ctx: Optional[dict]):
    """Scope a dispatched trace context around one worker task.

    Installs the ``trace_id``/``parent_id`` from an assign message on
    the current (buffering) recorder so the task's spans join the
    supervisor's tree, then restores whatever was there before.
    """
    rec = get_recorder()
    if not ctx or not rec.active:
        yield
        return
    previous = (rec.trace_id, rec._ambient_parent)
    rec.set_trace_context(ctx.get("trace_id"), ctx.get("parent_id"))
    try:
        yield
    finally:
        rec.trace_id, rec._ambient_parent = previous


class _Span:
    """A timed region; emits one ``span`` record when the ``with`` exits.

    The span emits on exceptions too (``status="error"``), so a failed
    cell still leaves its timing in the stream; attempt bookkeeping is
    the supervisor's job, not the span's.
    """

    __slots__ = ("_recorder", "name", "attrs", "_t0", "_wall", "span_id")

    def __init__(self, recorder: "Recorder", name: str, attrs: Dict[str, Any]):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[str] = None

    def __enter__(self) -> "_Span":
        self._wall = time.time()
        self._t0 = time.monotonic()
        # Open spans form a stack: records emitted while this span is
        # open (child spans, events, metrics) are parented on it.
        self.span_id = self._recorder._push_span()
        return self

    def set(self, **attrs) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.monotonic() - self._t0
        self._recorder._pop_span(self.span_id)
        # After the pop, current_span_id() is this span's own parent.
        self._recorder.span_complete(
            self.name, dur, status="ok" if exc_type is None else "error",
            t=self._wall, span_id=self.span_id, **self.attrs)
        return False


class Recorder:
    """Append-only JSONL sink for one run's telemetry records.

    Parameters
    ----------
    path:
        The ``events.jsonl`` file to append to.  ``None`` buffers records
        in memory instead (the worker-side child mode; see :meth:`drain`).

    Listeners registered with :meth:`add_listener` observe every record
    as it is emitted (including worker records merged via
    :meth:`ingest`) — this is how the live progress line and the manifest
    builder stay current without re-reading the file.
    """

    active = True

    def __init__(self, path: Optional[str] = None):
        self._path = path
        self._fh = None
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._buffer: Optional[List[dict]] = [] if path is None else None
        self._listeners: List[Callable[[dict], None]] = []
        #: Trace identity; ``None`` until :meth:`set_trace_context` — no
        #: stamping happens before that, so pre-tracing record shapes
        #: are reproduced exactly.
        self.trace_id: Optional[str] = None
        #: Parent inherited from a dispatch message (worker mode); open
        #: spans in this process shadow it via the stack.
        self._ambient_parent: Optional[str] = None
        self._span_stack: List[str] = []

    @classmethod
    def buffering(cls) -> "Recorder":
        """A child recorder that buffers records for :meth:`drain`."""
        return cls(path=None)

    # ------------------------------------------------------------------
    # trace context (span-id threading)
    # ------------------------------------------------------------------
    def set_trace_context(self, trace_id: Optional[str],
                          parent_id: Optional[str] = None) -> None:
        """Install the trace identity (and an inherited parent span).

        The run owner calls this with its run id; workers call it (via
        :func:`apply_trace_context`) with the ``trace_id``/``parent_id``
        that rode their assign message.
        """
        self.trace_id = trace_id
        self._ambient_parent = parent_id

    def current_span_id(self) -> Optional[str]:
        """The innermost open span (or the inherited ambient parent)."""
        if self._span_stack:
            return self._span_stack[-1]
        return self._ambient_parent

    def _push_span(self) -> str:
        span_id = new_span_id()
        self._span_stack.append(span_id)
        return span_id

    def _pop_span(self, span_id: Optional[str]) -> None:
        if span_id is not None and span_id in self._span_stack:
            self._span_stack.remove(span_id)

    def _stamp(self, record: dict, *,
               span_id: Optional[str] = None,
               parent_id: Optional[str] = None) -> dict:
        """Attach trace ids to one record (no-op until a trace is set)."""
        if self.trace_id is None:
            return record
        record["trace_id"] = self.trace_id
        if span_id is not None:
            record["span_id"] = span_id
        parent = parent_id if parent_id is not None else self.current_span_id()
        if parent is not None:
            record["parent_id"] = parent
        return record

    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[dict], None]) -> None:
        self._listeners.append(listener)

    def _write(self, record: dict) -> None:
        if self._buffer is not None:
            self._buffer.append(record)
            return
        if self._fh is None:
            directory = os.path.dirname(self._path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(self._path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True,
                                  default=_json_default) + "\n")
        self._fh.flush()

    def _emit(self, record: dict) -> None:
        record.setdefault("v", SCHEMA_VERSION)
        record.setdefault("t", time.time())
        record.setdefault("pid", os.getpid())
        with self._lock:
            record["seq"] = next(self._seq)
            self._write(record)
        for listener in self._listeners:
            try:
                listener(record)
            except Exception:  # pragma: no cover - listeners never fatal
                logging.getLogger(__name__).exception(
                    "telemetry listener failed")

    # ------------------------------------------------------------------
    # the four record kinds
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """A context manager timing one operation as a ``span`` record."""
        return _Span(self, name, attrs)

    def span_complete(self, name: str, dur_s: float, *,
                      status: str = "ok", t: Optional[float] = None,
                      span_id: Optional[str] = None,
                      parent_id: Optional[str] = None, **attrs) -> None:
        """Emit a span measured externally (or synthesized at merge)."""
        record = {"kind": "span", "name": name,
                  "dur_s": round(float(dur_s), 6), "status": status,
                  "attrs": attrs}
        if t is not None:
            record["t"] = t
        if self.trace_id is not None:
            self._stamp(record, span_id=span_id or new_span_id(),
                        parent_id=parent_id)
        self._emit(record)

    def metric(self, name: str, value, unit: Optional[str] = None,
               **attrs) -> None:
        record = {"kind": "metric", "name": name, "value": value,
                  "attrs": attrs}
        if unit is not None:
            record["unit"] = unit
        self._emit(self._stamp(record))

    def event(self, name: str, *, level: str = "info", **attrs) -> None:
        self._emit(self._stamp({"kind": "event", "name": name,
                                "level": level, "attrs": attrs}))

    def log(self, level: str, logger: str, message: str) -> None:
        self._emit({"kind": "log", "level": level, "logger": logger,
                    "message": message})

    # ------------------------------------------------------------------
    # cross-process merge (the supervisor reply channel)
    # ------------------------------------------------------------------
    def drain(self) -> List[dict]:
        """Take the buffered records (child mode); empties the buffer."""
        if self._buffer is None:
            return []
        with self._lock:
            records, self._buffer = self._buffer, []
        return records

    def ingest(self, records: Iterable[dict]) -> None:
        """Merge records shipped back from a worker into this stream.

        The worker's wall time and pid are preserved (that is the
        timeline); the parent re-assigns ``seq`` so the merged stream has
        a single total order.
        """
        for record in records:
            if not isinstance(record, dict):
                continue
            record = dict(record)
            record.pop("seq", None)
            self._emit(record)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TelemetryLogHandler(logging.Handler):
    """Bridge stdlib logging records into the telemetry stream.

    Attached to the ``repro`` logger while a run is recorded, so every
    ``logger.warning(...)`` (supervisor retries, resource-governor
    degradations, cache quarantines) lands in ``events.jsonl`` as a
    ``log`` record alongside the spans it explains.
    """

    def __init__(self, recorder: Recorder, level: int = logging.INFO):
        super().__init__(level)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._recorder.log(record.levelname.lower(), record.name,
                               record.getMessage())
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)
