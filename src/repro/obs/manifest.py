"""Per-run telemetry: the run directory, the manifest and the fold.

:class:`RunTelemetry` owns everything one recorded run produces:

* a **run directory** ``<telemetry_dir>/<run_id>/`` holding
  ``events.jsonl`` (the span/metric/event/log stream, see
  :mod:`repro.obs.recorder`) and ``manifest.json``;
* the **manifest** — a queryable summary folded live from the stream:
  run id and config, every trace's cache key, per-cell outcome
  (done / resumed / failed), durations, rows, events/s, attempts,
  shard counts and plan digests, observed worker RSS, and run-wide
  counters (cache hits/misses, retries, timeouts, OOMs);
* the **activation scope**: entering a :class:`RunTelemetry` installs
  its recorder as the process-current one (:func:`repro.obs.get_recorder`),
  registers it as the *current run* (:func:`current_run`), attaches the
  logging bridge to the ``repro`` logger, and optionally a live
  :class:`~repro.obs.progress.ProgressLine` on stderr.

The sweep engine activates one per ``run_grid`` when built with
``telemetry_dir=...`` and none is already active; the CLI activates one
per command (``--telemetry DIR``), so a whole ``fig6`` suite — several
engines, one per trace — lands in a single coherent run.

**Byte stability.** ``manifest_stable_bytes`` serializes the
*deterministic* portion of a manifest (trace identities and per-cell
result digests — not timings, statuses, pids or run ids) with canonical
JSON, so a sweep resumed from its checkpoint journal produces exactly
the same stable bytes as the run that computed every cell — the
property ``tests/test_obs.py`` pins down.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from .logsetup import library_logger
from .progress import ProgressLine
from .recorder import Recorder, TelemetryLogHandler, use_recorder

#: Manifest format version.
MANIFEST_VERSION = 1

#: File names inside a run directory.
MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"

_RUN_COUNTER = itertools.count()

_current_run: Optional["RunTelemetry"] = None


def current_run() -> Optional["RunTelemetry"]:
    """The active :class:`RunTelemetry`, if a run is being recorded."""
    return _current_run


def result_digest(result: Any) -> str:
    """Stable content digest of one grid-cell result.

    Uses the checkpoint journal's structural encoding, so a result
    decoded from a journal digests identically to a freshly computed
    one — which is exactly what makes resumed manifests byte-stable.
    Non-checkpointable results fall back to their plain JSON form.
    """
    from ..errors import CheckpointError
    from ..runtime.checkpoint import encode_result

    try:
        payload = encode_result(result)
    except CheckpointError:
        payload = result
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _split_member(member) -> Tuple:
    """``(cell, plan digest, range)`` of a task member
    (:func:`~repro.runtime.policy.split_member`)."""
    # Imported here: ``repro.runtime`` imports this package.
    from ..runtime.policy import split_member

    return split_member(tuple(member))


class _CellStats:
    """Mutable fold state for one grid cell."""

    __slots__ = ("trace_key", "cell", "status", "duration_s", "rows",
                 "attempts", "failed_attempts", "shards", "plan_digest",
                 "partition_dim", "kernel", "observed_rss_kb",
                 "result_sha256", "order")

    def __init__(self, trace_key: str, cell: Tuple, order: int):
        self.trace_key = trace_key
        self.cell = cell
        self.status = "pending"
        self.duration_s = 0.0
        self.rows = 0
        self.attempts = 0
        self.failed_attempts = 0
        self.shards = 0
        self.plan_digest: Optional[str] = None
        self.partition_dim: Optional[str] = None
        self.kernel: Optional[str] = None
        self.observed_rss_kb: Optional[int] = None
        self.result_sha256: Optional[str] = None
        self.order = order

    def as_dict(self, traces: Dict[str, dict]) -> dict:
        return {
            "trace": traces.get(self.trace_key, {}).get("name"),
            "trace_key": self.trace_key,
            "cell": list(self.cell),
            "status": self.status,
            "attempts": self.attempts,
            "failed_attempts": self.failed_attempts,
            "duration_s": round(self.duration_s, 6),
            "rows": self.rows,
            "events_per_sec": (int(self.rows / self.duration_s)
                               if self.duration_s > 0 and self.rows else None),
            "shards": self.shards,
            "plan_digest": self.plan_digest,
            "partition_dim": self.partition_dim,
            "kernel": self.kernel,
            "observed_rss_kb": self.observed_rss_kb,
            "result_sha256": self.result_sha256,
        }


class RunTelemetry:
    """One recorded run: directory, recorder, live fold, manifest.

    Parameters
    ----------
    directory:
        The ``--telemetry`` directory; the run creates its own
        subdirectory under it.
    argv:
        The command line to record in the manifest (CLI sets it).
    config:
        Requested execution configuration (jobs, shards, budgets...).
    progress:
        Show the live stderr progress line.
    progress_stream:
        Override the progress stream (tests).
    """

    def __init__(self, directory: str, *, argv: Optional[List[str]] = None,
                 config: Optional[dict] = None, progress: bool = False,
                 progress_stream=None, run_label: Optional[str] = None):
        stamp = time.strftime("%Y%m%dT%H%M%S")
        label = f"-{run_label}" if run_label else ""
        self.run_id = (f"run-{stamp}{label}-p{os.getpid()}"
                       f"-{next(_RUN_COUNTER)}")
        self.directory = os.path.join(os.path.expanduser(directory),
                                      self.run_id)
        os.makedirs(self.directory, exist_ok=True)
        self.events_path = os.path.join(self.directory, EVENTS_NAME)
        self.manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        self.argv = list(argv) if argv is not None else None
        self.config = dict(config or {})
        self.recorder = Recorder(self.events_path)
        self.recorder.add_listener(self._on_record)
        self.progress: Optional[ProgressLine] = None
        if progress:
            self.progress = ProgressLine(progress_stream)
            self.recorder.add_listener(self.progress)
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self._traces: Dict[str, dict] = {}
        self._cells: Dict[Tuple[str, Tuple], _CellStats] = {}
        self._counters: Dict[str, int] = {
            "cache_hits": 0, "cache_misses": 0, "tasks_done": 0,
            "retries": 0, "timeouts": 0, "oom_failures": 0,
            "checkpoint_writes": 0,
            "heartbeats": 0, "interrupted_cells": 0,
        }
        self._current_trace_key: Optional[str] = None
        self._log_handler: Optional[TelemetryLogHandler] = None
        self._recorder_scope = None
        self._finished = False

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "RunTelemetry":
        global _current_run
        self._recorder_scope = use_recorder(self.recorder)
        self._recorder_scope.__enter__()
        _current_run = self
        # The run id doubles as the trace id: from here on every span
        # gets span/parent ids and the stream reconstructs into one
        # causal tree per sweep (repro.obs.tracing).
        self.recorder.set_trace_context(self.run_id)
        self._log_handler = TelemetryLogHandler(self.recorder)
        library_logger().addHandler(self._log_handler)
        self.recorder.event("run.start", run_id=self.run_id,
                            argv=self.argv, config=self.config)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        from ..errors import SweepInterrupted

        if exc_type is None:
            outcome = "completed"
        elif exc_type is not None and issubclass(exc_type,
                                                 (SweepInterrupted,
                                                  KeyboardInterrupt)):
            # A graceful shutdown is not a failure: the journal holds
            # every completed cell and the run is resumable.
            outcome = "interrupted"
        else:
            outcome = "failed"
        self.finish(outcome=outcome,
                    error=None if exc is None else f"{type(exc).__name__}: {exc}")
        return False

    def finish(self, *, outcome: str = "completed",
               error: Optional[str] = None) -> None:
        """Write the manifest and tear the run down (idempotent)."""
        global _current_run
        if self._finished:
            return
        self._finished = True
        duration = time.monotonic() - self._started_mono
        level = {"completed": "info",
                 "interrupted": "warning"}.get(outcome, "error")
        self.recorder.event("run.finish", run_id=self.run_id,
                            outcome=outcome, duration_s=round(duration, 6),
                            level=level)
        if self.progress is not None:
            self.progress.finish()
        manifest = self.build_manifest(outcome=outcome, error=error,
                                       duration_s=duration)
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.manifest_path)
        if self._log_handler is not None:
            library_logger().removeHandler(self._log_handler)
            self._log_handler = None
        if self._recorder_scope is not None:
            self._recorder_scope.__exit__(None, None, None)
            self._recorder_scope = None
        if _current_run is self:
            _current_run = None
        self.recorder.close()

    # ------------------------------------------------------------------
    # engine-facing API
    # ------------------------------------------------------------------
    def cell_result(self, trace_key: str, cell, result,
                    source: str = "computed") -> None:
        """Record a grid cell's final result (digest + outcome).

        ``source`` is ``"computed"`` or ``"journal"`` (a ``--resume``
        hit); journal cells keep the ``resumed`` status their
        ``cell.resumed`` event established.
        """
        stats = self._stats(trace_key, _split_member(cell)[0])
        stats.result_sha256 = result_digest(result)
        if source == "journal":
            stats.status = "resumed"
        elif stats.status != "resumed":
            stats.status = "done"

    def merged_cell(self, trace_key: str, cell, num_shards: int) -> None:
        """Synthesize the ``cell.run`` span of a shard-merged cell.

        Sharded cells never run as one task, so no worker emits their
        ``cell.run``; the merged timeline still must contain exactly one
        per grid cell (the property the tests pin).  Duration is the sum
        of the folded ``shard.run`` spans — CPU-time-like, which is the
        comparable quantity across sharded and unsharded cells.
        """
        stats = self._stats(trace_key, _split_member(cell)[0])
        self.recorder.span_complete(
            "cell.run", stats.duration_s, cell=list(cell),
            rows=stats.rows, merged=True, shards=num_shards)

    # ------------------------------------------------------------------
    # the fold (recorder listener)
    # ------------------------------------------------------------------
    def _stats(self, trace_key: Optional[str], cell: Tuple) -> _CellStats:
        key = (trace_key or "", cell)
        if key not in self._cells:
            self._cells[key] = _CellStats(trace_key or "", cell,
                                          order=len(self._cells))
        return self._cells[key]

    def _cells_of(self, attrs: dict) -> List[Tuple]:
        """The grid cells a record is about: a group task's members, a
        shard's parent cell, or the cell itself."""
        from ..runtime.policy import task_cells

        cell = attrs.get("cell") or attrs.get("task")
        if not isinstance(cell, (list, tuple)) or not cell:
            return []
        return [_split_member(c)[0] for c in task_cells(cell)]

    def _on_record(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "span":
            self._fold_span(record)
        elif kind == "metric":
            self._fold_metric(record)
        elif kind == "event":
            self._fold_event(record)

    def _fold_span(self, record: dict) -> None:
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "checkpoint.write":
            self._counters["checkpoint_writes"] += 1
            return
        if name not in ("cell.run", "shard.run"):
            return
        cells = self._cells_of(attrs)
        if not cells or record.get("status") != "ok":
            return
        stats = self._stats(self._current_trace_key, cells[0])
        if attrs.get("partition_dim"):
            stats.partition_dim = attrs["partition_dim"]
        if attrs.get("kernel"):
            stats.kernel = attrs["kernel"]
        if name == "shard.run":
            stats.duration_s += float(record.get("dur_s", 0.0))
            stats.rows += int(attrs.get("rows", 0) or 0)
            stats.shards += 1
            digest = _split_member(attrs.get("cell") or ())[1]
            if digest is not None:
                stats.plan_digest = digest
        elif attrs.get("merged"):
            stats.shards = int(attrs.get("shards", stats.shards) or 0)
            if stats.status == "pending":
                stats.status = "done"
        else:
            stats.duration_s += float(record.get("dur_s", 0.0))
            stats.rows = int(attrs.get("rows", stats.rows) or 0)
            if stats.status == "pending":
                stats.status = "done"

    def _fold_metric(self, record: dict) -> None:
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "cache.hit":
            self._counters["cache_hits"] += 1
            return
        if name == "cache.miss":
            self._counters["cache_misses"] += 1
            return
        cells = self._cells_of(attrs)
        if not cells:
            return
        if name == "worker.heartbeat":
            self._counters["heartbeats"] += 1
            return
        for cell in cells:
            stats = self._stats(self._current_trace_key, cell)
            if name == "worker.ru_maxrss_kb":
                value = int(record.get("value", 0))
                stats.observed_rss_kb = max(stats.observed_rss_kb or 0,
                                            value)

    def _fold_event(self, record: dict) -> None:
        name = record.get("name")
        attrs = record.get("attrs", {})
        if name == "sweep.start":
            key = attrs.get("trace_key") or "<anonymous>"
            self._current_trace_key = key
            self._traces.setdefault(key, {
                "name": attrs.get("trace"),
                "trace_key": key,
                "num_procs": attrs.get("num_procs"),
                "events": attrs.get("events"),
            })
        elif name == "task.assigned":
            # A cell rides in every range task of its grid, each with
            # its own attempt count: a cell's attempts are the most any
            # of those tasks took.
            attempt = int(attrs.get("attempt", 1))
            for cell in self._cells_of(attrs):
                stats = self._stats(self._current_trace_key, cell)
                stats.attempts = max(stats.attempts, attempt)
        elif name == "task.done":
            self._counters["tasks_done"] += 1
        elif name == "task.failed":
            fail_kind = attrs.get("fail_kind", "error")
            if fail_kind == "hang":
                self._counters["timeouts"] += 1
            elif fail_kind == "oom":
                self._counters["oom_failures"] += 1
            elif fail_kind == "interrupted":
                self._counters["interrupted_cells"] += 1
            if attrs.get("action") == "retry":
                self._counters["retries"] += 1
            for cell in self._cells_of(attrs):
                stats = self._stats(self._current_trace_key, cell)
                stats.failed_attempts += 1
                if attrs.get("action") == "abort":
                    stats.status = "failed"
        elif name == "cell.resumed":
            for cell in self._cells_of(attrs):
                stats = self._stats(attrs.get("trace_key")
                                    or self._current_trace_key, cell)
                stats.status = "resumed"

    # ------------------------------------------------------------------
    # manifest assembly
    # ------------------------------------------------------------------
    def build_manifest(self, *, outcome: str, error: Optional[str],
                       duration_s: float) -> dict:
        cells = sorted(self._cells.values(), key=lambda s: s.order)
        return {
            "v": MANIFEST_VERSION,
            "run_id": self.run_id,
            "argv": self.argv,
            "config": self.config,
            "started_at": self._started_wall,
            "finished_at": self._started_wall + duration_s,
            "duration_s": round(duration_s, 6),
            "outcome": outcome,
            "error": error,
            "traces": [self._traces[k] for k in sorted(self._traces)],
            "cells": [s.as_dict(self._traces) for s in cells],
            "counters": dict(self._counters),
        }


# ----------------------------------------------------------------------
# manifest IO and the stable (resume-invariant) view
# ----------------------------------------------------------------------
def load_manifest(path: str, *, strict: bool = True) -> Optional[dict]:
    """Read one ``manifest.json`` (pass the file or its run directory).

    With ``strict=False``, a malformed or half-written manifest (a run
    killed mid-write, a truncated file, stray bytes) is skipped with a
    logged warning and ``None`` is returned instead of aborting —
    ``repro report``/``trace``/``diff`` over a directory of runs must
    not die because one run is torn.
    """
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        if strict:
            raise ReproError(
                f"cannot read run manifest {path!r}: {exc}") from None
        library_logger().warning(
            "skipping malformed run manifest %s: %s", path, exc)
        return None


def validate_manifest(manifest: dict) -> None:
    """Structural check of a manifest; raises :class:`ReproError`."""
    if not isinstance(manifest, dict):
        raise ReproError("manifest is not a JSON object")
    if manifest.get("v") != MANIFEST_VERSION:
        raise ReproError(f"unknown manifest version {manifest.get('v')!r}")
    for field in ("run_id", "outcome", "traces", "cells", "counters",
                  "duration_s"):
        if field not in manifest:
            raise ReproError(f"manifest missing field {field!r}")
    if manifest["outcome"] not in ("completed", "failed", "interrupted"):
        raise ReproError(f"bad manifest outcome {manifest['outcome']!r}")
    if not isinstance(manifest["cells"], list):
        raise ReproError("manifest cells is not a list")
    for i, entry in enumerate(manifest["cells"]):
        for field in ("cell", "status", "trace_key"):
            if field not in entry:
                raise ReproError(f"manifest cell #{i} missing {field!r}")
        if entry["status"] not in ("pending", "done", "resumed", "failed"):
            raise ReproError(
                f"manifest cell #{i} has bad status {entry['status']!r}")


def manifest_stable_view(manifest: dict) -> dict:
    """The resume-invariant portion of a manifest.

    Keeps trace identities and per-cell result digests; drops run ids,
    wall times, durations, statuses (computed vs resumed), attempt
    counts and RSS observations — everything legitimately different
    between a fresh run and a ``--resume`` of it.
    """
    traces = sorted(
        ({"name": t.get("name"), "trace_key": t.get("trace_key"),
          "num_procs": t.get("num_procs"), "events": t.get("events")}
         for t in manifest.get("traces", ())),
        key=lambda t: str(t["trace_key"]))
    results = sorted(
        ({"trace_key": c.get("trace_key"), "cell": c.get("cell"),
          "result_sha256": c.get("result_sha256")}
         for c in manifest.get("cells", ())),
        key=lambda c: (str(c["trace_key"]), str(c["cell"])))
    return {"v": manifest.get("v"), "traces": traces, "results": results}


def manifest_stable_bytes(manifest: dict) -> bytes:
    """Canonical bytes of :func:`manifest_stable_view` (test anchor)."""
    return json.dumps(manifest_stable_view(manifest), sort_keys=True,
                      separators=(",", ":")).encode()


def find_runs(directory: str) -> List[str]:
    """Run directories under ``directory`` (itself, or one level down)."""
    directory = os.path.expanduser(directory)
    if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        return [directory]
    runs = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    for name in names:
        path = os.path.join(directory, name)
        if os.path.exists(os.path.join(path, MANIFEST_NAME)):
            runs.append(path)
    return runs
