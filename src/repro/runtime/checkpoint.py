"""Durable checkpoint journal for sweep grids.

A paper-scale sweep (LU200, MP3D10000, WATER288) spends minutes per grid
cell; a killed run should not recompute cells it already finished.  The
journal is an append-only JSONL file, one line per completed cell:

.. code-block:: json

    {"v": 1, "key": "<trace key>", "cell": ["classify", 64, "dubois"],
     "result": {"type": "DuboisBreakdown", ...}}

* **Keyed by (trace key, cell)** — the trace key is the workload's trace
  *cache* key when the engine was built from one (so the journal is
  invalidated exactly when the cached trace is), else a content hash of
  the trace arrays.
* **Durable** — each record is one ``json.dumps`` line, flushed and
  fsynced before :meth:`CheckpointJournal.record` returns; a crash can
  lose at most the in-flight cell.
* **Versioned** — the first line is a header carrying the journal format
  version and a digest of the code release that wrote it.  Resuming
  against a journal whose digest no longer matches raises
  :class:`~repro.errors.StaleJournalError` with a clear remedy instead of
  silently mixing results computed by different code.  (Headerless
  journals from older releases still load, record by record.)
* **Corruption-tolerant** — a torn final line (the kill happened
  mid-write) is *truncated away* on open, so the next append starts on a
  clean line boundary; any record with the wrong version or trace key is
  skipped; a record whose result no longer decodes invalidates only
  itself.
* **Compactable** — :meth:`CheckpointJournal.compact` atomically rewrites
  the journal as one record per cell (latest wins), dropping duplicate
  lines from retried runs and shard partials whose merged parent cell is
  already journaled.

Results are serialized structurally (no pickle), so a journal written by
one run decodes to objects that compare equal to a fresh computation —
resume is byte-identical as far as any consumer can observe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

from ..errors import CheckpointError, StaleJournalError
from ..obs.recorder import get_recorder
from .policy import split_member

_VERSION = 1

#: Version of the journal *file* format (the header line); bump when the
#: record schema or result encoding changes incompatibly.  v3 added the
#: execution-path (kernel) binding to the header digest.
JOURNAL_VERSION = 3

#: Marker distinguishing the header line from cell records.
_HEADER_KIND = "repro-journal"


def _code_version() -> str:
    # Imported lazily: repro/__init__ pulls in this module before
    # defining __version__.
    import repro
    return repro.__version__


def journal_digest(trace_key: str, kernel: Optional[str] = None) -> str:
    """Digest binding a journal to the code and execution path that wrote it.

    Covers the journal format version, the ``repro`` release, the
    *effective* kernel mode (``vectorized``/``interpreted`` — ``None``
    resolves ``auto`` for this process) and the trace key — the things
    that decide whether old records may be mixed with fresh computations.
    A resumed sweep under a different ``--kernel`` therefore recomputes
    from scratch instead of mixing execution paths.
    """
    from ..kernels import effective_kernel_mode
    if kernel is None:
        kernel = effective_kernel_mode("auto")
    blob = (f"journal:{JOURNAL_VERSION}|code:{_code_version()}"
            f"|kernel:{kernel}|key:{trace_key}")
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def default_checkpoint_dir() -> str:
    """``$REPRO_CHECKPOINT_DIR`` or ``~/.cache/repro/checkpoints``."""
    env = os.environ.get("REPRO_CHECKPOINT_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "checkpoints")


# ----------------------------------------------------------------------
# result (de)serialization
# ----------------------------------------------------------------------
def encode_result(result: Any) -> dict:
    """Encode one grid-cell result to a JSON-safe tagged dict."""
    # Imported here: ``repro.classify`` imports ``repro.runtime``.
    from ..classify.breakdown import DuboisBreakdown, SimpleBreakdown
    from ..classify.compare import ClassificationComparison
    from ..protocols.results import ProtocolResult

    if isinstance(result, DuboisBreakdown):
        return {"type": "DuboisBreakdown",
                **{f.name: getattr(result, f.name)
                   for f in dataclasses.fields(result)}}
    if isinstance(result, SimpleBreakdown):
        return {"type": "SimpleBreakdown",
                **{f.name: getattr(result, f.name)
                   for f in dataclasses.fields(result)}}
    if isinstance(result, ClassificationComparison):
        return {"type": "ClassificationComparison",
                "trace_name": result.trace_name,
                "block_bytes": result.block_bytes,
                "ours": encode_result(result.ours),
                "eggers": encode_result(result.eggers),
                "torrellas": encode_result(result.torrellas)}
    if isinstance(result, ProtocolResult):
        return {"type": "ProtocolResult",
                "protocol": result.protocol,
                "trace_name": result.trace_name,
                "block_bytes": result.block_bytes,
                "num_procs": result.num_procs,
                "breakdown": encode_result(result.breakdown),
                "counters": result.counters.as_dict(),
                "replacement_misses": result.replacement_misses}
    raise CheckpointError(
        f"cannot checkpoint result of type {type(result).__name__}")


def decode_result(blob: dict) -> Any:
    """Invert :func:`encode_result`."""
    from ..classify.breakdown import DuboisBreakdown, SimpleBreakdown
    from ..classify.compare import ClassificationComparison
    from ..protocols.results import Counters, ProtocolResult

    kind = blob.get("type")
    fields = {k: v for k, v in blob.items() if k != "type"}
    try:
        if kind == "DuboisBreakdown":
            return DuboisBreakdown(**fields)
        if kind == "SimpleBreakdown":
            return SimpleBreakdown(**fields)
        if kind == "ClassificationComparison":
            return ClassificationComparison(
                trace_name=fields["trace_name"],
                block_bytes=fields["block_bytes"],
                ours=decode_result(fields["ours"]),
                eggers=decode_result(fields["eggers"]),
                torrellas=decode_result(fields["torrellas"]))
        if kind == "ProtocolResult":
            return ProtocolResult(
                protocol=fields["protocol"],
                trace_name=fields["trace_name"],
                block_bytes=fields["block_bytes"],
                num_procs=fields["num_procs"],
                breakdown=decode_result(fields["breakdown"]),
                counters=Counters(**fields["counters"]),
                replacement_misses=fields.get("replacement_misses", 0))
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed {kind} record: {exc}") from None
    raise CheckpointError(f"unknown checkpoint result type {kind!r}")


def _cell_key(cell) -> Tuple:
    """Normalize a cell for dictionary keying (JSON round-trips lists)."""
    return tuple(cell)


class CheckpointJournal:
    """Append-only JSONL journal of completed grid cells for one trace.

    Parameters
    ----------
    directory:
        Journal directory (created on first write).
    trace_key:
        The trace's identity; records with a different key are ignored on
        load, so a stale journal can never poison a new trace's sweep.
    kernel:
        The *effective* kernel mode whose results this journal holds
        (``"vectorized"`` or ``"interpreted"``; ``None`` resolves
        ``auto`` for this process).  Part of the header digest, so
        resuming under a different mode raises
        :class:`~repro.errors.StaleJournalError` instead of mixing
        execution paths.
    """

    def __init__(self, directory: Optional[str], trace_key: str,
                 kernel: Optional[str] = None):
        from ..kernels import effective_kernel_mode
        self.directory = directory or default_checkpoint_dir()
        self.trace_key = trace_key
        self.kernel = effective_kernel_mode(kernel or "auto")
        self.path = os.path.join(self.directory, f"{trace_key}.jsonl")
        self._fh = None
        #: Lines skipped or superseded during the last :meth:`load` — a
        #: nonzero value means :meth:`compact` would shrink the file.
        self.stale_lines = 0
        # Open-time hygiene: reap temp files leaked by killed writers
        # (compaction tmps here, manifest tmps when the telemetry dir is
        # colocated) and repair a torn tail before anything reads it.
        from .resources import gc_stale_tmp

        gc_stale_tmp(self.directory)
        self._recover_tail()

    # ------------------------------------------------------------------
    # torn-tail recovery & header
    # ------------------------------------------------------------------
    def _recover_tail(self) -> None:
        """Truncate a partial final line left by a mid-write kill.

        Each record is fsynced as one line, so the only possible damage
        from a crash is an unterminated tail.  Cutting the file back to
        its last newline restores the invariant that appends always start
        on a line boundary — without it, the first record of the *next*
        run would glue onto the torn fragment and corrupt both.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size == 0:
            return
        with open(self.path, "r+b") as fh:
            fh.seek(max(0, size - 1))
            if fh.read(1) == b"\n":
                return
            # Walk back in blocks to the last newline.
            keep = 0
            pos = size
            block = 4096
            while pos > 0:
                step = min(block, pos)
                fh.seek(pos - step)
                chunk = fh.read(step)
                nl = chunk.rfind(b"\n")
                if nl != -1:
                    keep = pos - step + nl + 1
                    break
                pos -= step
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
        get_recorder().event("checkpoint.recovered", level="warning",
                             key=self.trace_key,
                             dropped_bytes=size - keep)

    def _header_line(self) -> str:
        return json.dumps({"kind": _HEADER_KIND,
                           "journal_v": JOURNAL_VERSION,
                           "key": self.trace_key,
                           "kernel": self.kernel,
                           "digest": journal_digest(self.trace_key,
                                                    self.kernel),
                           "writer": _code_version()},
                          sort_keys=True)

    def _check_header(self, record: dict) -> None:
        """Reject a journal whose header digest no longer matches."""
        if record.get("digest") == journal_digest(self.trace_key,
                                                  self.kernel):
            return
        writer = record.get("writer", "unknown")
        theirs = record.get("kernel", "unknown")
        raise StaleJournalError(
            f"checkpoint journal {self.path} is stale: written by repro "
            f"{writer} (journal format v{record.get('journal_v')}, kernel "
            f"{theirs}), but this is repro {_code_version()} (format "
            f"v{JOURNAL_VERSION}, kernel {self.kernel}). Results computed "
            f"by different code or execution paths must not be mixed -- "
            f"delete the journal or run without --resume to recompute.")

    def _iter_records(self):
        """Yield raw record dicts, validating the header if present.

        Tracks ``self.stale_lines`` (skipped/garbage lines) so callers
        can decide whether compaction is worthwhile.
        """
        self.stale_lines = 0
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            first = True
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    self.stale_lines += 1
                    continue  # torn write from a killed run
                if first:
                    first = False
                    if (isinstance(record, dict)
                            and record.get("kind") == _HEADER_KIND):
                        self._check_header(record)
                        continue
                    # Headerless journal from an older release: records
                    # are still versioned individually, so fall through.
                if (record.get("v") != _VERSION
                        or record.get("key") != self.trace_key):
                    self.stale_lines += 1
                    continue
                yield record

    # ------------------------------------------------------------------
    def load(self) -> Dict[Tuple, Any]:
        """Completed cells from a previous run: ``{cell: result}``.

        Unparseable lines and records from other trace keys or record
        versions are skipped, not fatal; a *stale header* (different
        code release) raises :class:`~repro.errors.StaleJournalError`.
        """
        completed: Dict[Tuple, Any] = {}
        for record in self._iter_records():
            try:
                cell = _cell_key(record["cell"])
                if cell in completed:
                    self.stale_lines += 1  # duplicate from a retried run
                completed[cell] = decode_result(record["result"])
            except (CheckpointError, KeyError, TypeError):
                self.stale_lines += 1
                continue  # one bad record invalidates only itself
        return completed

    #: Free-space preflight requirement before the journal is opened for
    #: appending: journals are small (one JSON line per cell), but
    #: fsyncing onto a full disk corrupts the very file that makes a
    #: killed sweep resumable, so require modest headroom up front.
    MIN_FREE_BYTES = 8 << 20

    def _open_for_append(self):
        from .resources import ensure_free_space

        os.makedirs(self.directory, exist_ok=True)
        ensure_free_space(self.directory, self.MIN_FREE_BYTES,
                          label="checkpoint journal")
        fresh = not os.path.exists(self.path) or \
            os.path.getsize(self.path) == 0
        if not fresh:
            # Appending to a journal we did not load(): still refuse to
            # mix records across code releases.
            with open(self.path, "r", encoding="utf-8") as fh:
                try:
                    first = json.loads(fh.readline().strip() or "null")
                except json.JSONDecodeError:
                    first = None
            if isinstance(first, dict) and first.get("kind") == _HEADER_KIND:
                self._check_header(first)
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._fh.write(self._header_line() + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def open(self) -> None:
        """Open the journal for appending, if it is not open yet.

        Runs a disk free-space preflight and raises
        :class:`~repro.errors.ResourceExhaustedError` (``kind="disk"``)
        rather than writing a journal the next run could not trust; a
        fresh journal starts with the versioned header line.  The sweep
        engine opens its journal when a grid starts: a group task's
        cells are recorded only when the whole group completes, which
        can be near the end of the run.
        """
        if self._fh is None:
            self._open_for_append()

    def record(self, cell, result) -> None:
        """Durably append one completed cell (flush + fsync), opening
        the journal first if needed (:meth:`open`)."""
        self.open()
        with get_recorder().span("checkpoint.write", cell=list(cell),
                                 key=self.trace_key):
            line = json.dumps({"v": _VERSION, "key": self.trace_key,
                               "cell": list(cell),
                               "result": encode_result(result)},
                              sort_keys=True)
            self._fh.write(line + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Atomically rewrite the journal without redundant lines.

        Keeps the latest record per cell and drops (a) duplicate records
        from retried/resumed runs, (b) garbage or foreign-key lines, and
        (c) shard-partial records whose merged parent cell is already
        journaled — once ``("classify", 64, "dubois")`` is durable, its
        ``("classify-shard", 64, "dubois", <digest>, k)`` partials can
        never be read again.  Returns the number of lines dropped.
        Written via a temp sibling + ``os.replace`` so a kill mid-compact
        leaves the original journal intact.
        """
        if not os.path.exists(self.path):
            return 0
        if self._fh is not None:
            self.close()
        latest: Dict[Tuple, dict] = {}
        duplicates = 0
        for record in self._iter_records():
            try:
                cell = _cell_key(record["cell"])
            except (KeyError, TypeError):
                self.stale_lines += 1
                continue
            if cell in latest:
                duplicates += 1
            latest[cell] = record
        dropped = self.stale_lines + duplicates
        for cell in list(latest):
            parent, digest, _ = split_member(cell)
            if digest is not None and parent in latest:
                del latest[cell]
                dropped += 1
        if dropped == 0:
            return 0
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self._header_line() + "\n")
            for record in latest.values():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        get_recorder().event("checkpoint.compacted", key=self.trace_key,
                             dropped_lines=dropped, kept=len(latest))
        self.stale_lines = 0
        return dropped

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
