"""Trace serialization.

Two formats are supported:

Text (``.trc``)
    One event per line: ``<proc> <OP> <hex-or-dec addr>``, with ``#``
    comments and a small header.  Human-readable; used in examples and docs.

NumPy (``.npz``, format 2)
    Three parallel arrays (``proc``, ``op``, ``addr``) plus a JSON header,
    stored uncompressed.  Each column is written as the narrowest unsigned
    dtype that holds its maximum (``proc`` and ``op`` are uint8, ``addr``
    uint16 or uint32 on every registry trace), so an event takes 4 to 6
    bytes on disk.  A load adopts each stored column as the in-memory
    signed column of the same width (a view: its top bit is clear), so
    uint8 ``proc``/``op`` and uint32 ``addr`` load without a copy; only a
    column narrower than its in-memory floor (a uint16 ``addr``) or one
    whose top bit is set is widened (see :mod:`repro.trace.columnar`).
    Used to cache generated benchmark traces between experiment runs.
    Format-1 files (zlib-compressed int64 columns) load through the same
    reader: the header checksum is taken over the arrays as stored, dtype
    included, so it verifies either.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List

import numpy as np

from ..errors import CacheIntegrityError, TraceError, TraceFormatError
from .columnar import TraceColumns, int64_slices
from .events import Event, op_from_name, op_name
from .trace import Trace

_TEXT_MAGIC = "#repro-trace-v1"


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------
def dumps_text(trace: Trace) -> str:
    """Serialize a trace to the text format."""
    lines = [_TEXT_MAGIC,
             f"# name: {trace.name}",
             f"num_procs {trace.num_procs}"]
    for proc, op, addr in trace:
        lines.append(f"{proc} {op_name(op)} {addr:#x}")
    return "\n".join(lines) + "\n"


def loads_text(text: str) -> Trace:
    """Parse the text format produced by :func:`dumps_text`."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _TEXT_MAGIC:
        raise TraceFormatError(f"missing trace header {_TEXT_MAGIC!r}")
    name = ""
    num_procs = None
    events: List[Event] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if raw.strip().startswith("# name:"):
            name = raw.split(":", 1)[1].strip()
            continue
        if not line:
            continue
        parts = line.split()
        if parts[0] == "num_procs":
            if len(parts) != 2:
                raise TraceFormatError(f"line {lineno}: bad num_procs line {raw!r}")
            try:
                num_procs = int(parts[1])
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: bad num_procs value {parts[1]!r}") from None
            continue
        if len(parts) != 3:
            raise TraceFormatError(f"line {lineno}: expected 'proc OP addr', got {raw!r}")
        try:
            proc = int(parts[0])
            op = op_from_name(parts[1])
            addr = int(parts[2], 0)
        except (ValueError, TraceError) as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        events.append((proc, op, addr))
    if num_procs is None:
        raise TraceFormatError("missing num_procs line")
    return Trace(events, num_procs, name=name)


def save_text(trace: Trace, path: str) -> None:
    """Write the text format to ``path``."""
    with open(path, "w") as f:
        f.write(dumps_text(trace))


def load_text(path: str) -> Trace:
    """Read the text format from ``path``."""
    with open(path) as f:
        return loads_text(f.read())


# ----------------------------------------------------------------------
# npz format
# ----------------------------------------------------------------------
#: Version of the ``.npz`` layout :func:`save_npz` writes (recorded in the
#: header and in trace-cache keys).
NPZ_FORMAT = 2


def _array_checksum(proc: np.ndarray, op: np.ndarray,
                    addr: np.ndarray) -> str:
    """SHA-256 over the trace arrays' bytes (dtype- and order-stable)."""
    h = hashlib.sha256()
    for arr in (proc, op, addr):
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(len(arr)).encode())
        h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


def values_checksum(columns: TraceColumns) -> str:
    """:func:`_array_checksum` of ``columns`` widened to int64, taken a
    slice at a time: a digest of the trace's values whatever dtypes hold
    them (the generated-trace pins are taken with it)."""
    h = hashlib.sha256()
    for arr in (columns.proc, columns.op, columns.addr):
        h.update(b"int64")
        h.update(str(len(arr)).encode())
        for part in int64_slices(arr):
            h.update(part)
    return h.hexdigest()


def _narrow(column: np.ndarray) -> np.ndarray:
    """``column`` as the narrowest unsigned dtype that holds its maximum
    (uint8 when empty)."""
    if len(column) == 0:
        return column.astype(np.uint8)
    if column.min() < 0:
        raise TraceError(f"cannot store negative value {int(column.min())}")
    return column.astype(np.min_scalar_type(int(column.max())), copy=False)


def save_npz(trace: Trace, path: str) -> None:
    """Write the NumPy format to ``path`` atomically.

    Each column is stored uncompressed as its narrowest unsigned dtype.
    The header records the format and a checksum over the stored arrays,
    verified by :func:`load_npz`.  The file is written to a temporary
    sibling then renamed into place, so a crash mid-write can never leave
    a truncated entry under ``path``.
    """
    cols = trace.columns()
    stored = {"proc": _narrow(cols.proc), "op": _narrow(cols.op),
              "addr": _narrow(cols.addr)}
    header = json.dumps({"format": NPZ_FORMAT, "name": trace.name,
                         "num_procs": trace.num_procs,
                         "meta": _jsonable(trace.meta),
                         "checksum": _array_checksum(**stored)})
    # np.savez appends ".npz" when missing, so the temp name must keep it.
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    try:
        np.savez(tmp, header=np.array(header), **stored)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_npz(path: str, *, verify_checksum: bool = True) -> Trace:
    """Read the NumPy format (format 2, or format 1) from ``path``.

    The stored checksum is verified over the arrays as stored, which
    then become the trace's columns: each is adopted as the signed view
    of its width, and only one whose top bit is set, or that is narrower
    than its column's floor, is widened.  Raises
    :class:`~repro.errors.CacheIntegrityError` (a
    :class:`~repro.errors.TraceFormatError` subclass) when the entry is
    truncated, unreadable, or fails its stored content checksum.  Entries
    written before checksums existed load without verification.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            for key in ("proc", "op", "addr", "header"):
                if key not in data:
                    raise TraceFormatError(
                        f"{path!r} missing array {key!r}")
            header = json.loads(str(data["header"]))
            proc = data["proc"]
            op = data["op"]
            addr = data["addr"]
    except TraceFormatError:
        raise
    except Exception as exc:
        # np.load reads arrays lazily, so a truncated/garbled archive can
        # fail anywhere above (zipfile CRC, zlib, json...).
        raise CacheIntegrityError(f"cannot read {path!r}: {exc}") from None
    if proc.ndim != 1 or op.ndim != 1 or addr.ndim != 1:
        raise TraceFormatError(f"{path!r} has non-1D trace arrays")
    if not (len(proc) == len(op) == len(addr)):
        raise TraceFormatError(f"{path!r} has unequal array lengths")
    if not isinstance(header, dict) or "num_procs" not in header:
        raise TraceFormatError(f"{path!r} has a malformed header")
    stored = header.get("checksum")
    if verify_checksum and stored is not None:
        actual = _array_checksum(proc, op, addr)
        if actual != stored:
            raise CacheIntegrityError(
                f"{path!r} failed its content checksum "
                f"(stored {stored[:12]}..., actual {actual[:12]}...)")
    try:
        cols = TraceColumns(proc, op, addr)
        return Trace.from_columns(cols, header["num_procs"],
                                  name=header.get("name", ""),
                                  meta=header.get("meta") or {})
    except TraceError as exc:
        raise TraceFormatError(f"{path!r}: {exc}") from None


def _jsonable(meta: dict) -> dict:
    """Best-effort conversion of metadata to JSON-safe values."""
    out = {}
    for key, value in meta.items():
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            value = repr(value)
        out[str(key)] = value
    return out


# ----------------------------------------------------------------------
# cache-on-disk helper
# ----------------------------------------------------------------------
def cached(path: str, generate) -> Trace:
    """Load the trace at ``path`` if present, else generate and save it.

    ``generate`` is a zero-argument callable returning a :class:`Trace`.
    Benchmarks use this so that each generated workload trace is produced
    once per configuration.
    """
    if os.path.exists(path):
        return load_npz(path)
    trace = generate()
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    save_npz(trace, path)
    return trace
