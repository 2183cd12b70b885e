"""Disk budgets, size parsing and the peak-RSS reading.

Each grid cell's memory is bounded by its batch of trace rows, not by
the trace, so a run needs no memory budget: a worker the kernel OOM
killer does take is classified ``oom`` by :mod:`repro.runtime.policy`
and retried like any other dead worker.  What is left to govern is disk:

* a **disk budget** (:func:`ensure_free_space`) guards the trace cache
  and checkpoint directories, and :func:`gc_stale_tmp` removes the temp
  files killed writers leave;
* :func:`parse_size` / :func:`format_size` read and render the
  ``--cache-max-bytes`` quota;
* :func:`peak_rss_bytes` is the peak-RSS reading workers report as
  telemetry.
"""

from __future__ import annotations

import logging
import os
import shutil
import time
import warnings
from typing import Optional

from ..errors import ConfigError, ResourceExhaustedError

logger = logging.getLogger(__name__)

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

_SIZE_SUFFIXES = {
    "": 1, "B": 1,
    "K": 1 << 10, "KB": 1 << 10, "KIB": 1 << 10,
    "M": 1 << 20, "MB": 1 << 20, "MIB": 1 << 20,
    "G": 1 << 30, "GB": 1 << 30, "GIB": 1 << 30,
    "T": 1 << 40, "TB": 1 << 40, "TIB": 1 << 40,
}


def parse_size(text) -> int:
    """Parse a human byte size (``"512M"``, ``"1.5G"``, ``"4096"``).

    Suffixes are binary (K/M/G/T = KiB/MiB/GiB/TiB, case-insensitive,
    optional trailing ``B``).  Integers pass through unchanged.
    """
    if isinstance(text, int):
        return text
    s = str(text).strip().upper().replace(" ", "")
    digits = s
    suffix = ""
    for i, ch in enumerate(s):
        if ch not in "0123456789.":
            digits, suffix = s[:i], s[i:]
            break
    try:
        value = float(digits)
        scale = _SIZE_SUFFIXES[suffix]
    except (ValueError, KeyError):
        raise ConfigError(
            f"cannot parse size {text!r} (use e.g. 512M, 1.5G, 4096)"
        ) from None
    if value < 0:
        raise ConfigError(f"size must be non-negative, got {text!r}")
    return int(value * scale)


def format_size(num_bytes: int) -> str:
    """Render a byte count compactly (``"1.5G"``, ``"512.0M"``)."""
    value = float(num_bytes)
    for unit in ("B", "K", "M", "G", "T"):
        if abs(value) < 1024 or unit == "T":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}T"  # pragma: no cover - unreachable


# ----------------------------------------------------------------------
# process introspection
# ----------------------------------------------------------------------
def peak_rss_bytes(who: str = "self") -> int:
    """Peak resident set size in bytes (``who``: ``"self"``/``"children"``).

    ``ru_maxrss`` is kilobytes on Linux.  Pool workers report it as the
    ``worker.ru_maxrss_kb`` telemetry metric, and the throughput
    benchmarks put it in each test's ``extra_info`` beside events/s.
    """
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    which = (resource.RUSAGE_CHILDREN if who == "children"
             else resource.RUSAGE_SELF)
    return resource.getrusage(which).ru_maxrss * 1024


# ----------------------------------------------------------------------
# disk budget
# ----------------------------------------------------------------------
def disk_free_bytes(path: str) -> Optional[int]:
    """Free bytes on the filesystem holding ``path`` (``None``: unknown)."""
    probe = path
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    try:
        return shutil.disk_usage(probe or ".").free
    except OSError:  # pragma: no cover - vanished mount
        return None


def ensure_free_space(path: str, needed_bytes: int, *,
                      label: str = "write") -> None:
    """Free-space preflight: raise before filling the disk, not after.

    Raises :class:`~repro.errors.ResourceExhaustedError` (``kind="disk"``)
    when the filesystem holding ``path`` has less than ``needed_bytes``
    free.  A failed write would corrupt or half-write an entry; failing
    *before* the write keeps the cache/journal consistent.
    """
    free = disk_free_bytes(path)
    if free is not None and free < needed_bytes:
        raise ResourceExhaustedError(
            f"not enough disk space for {label} under {path!r}: "
            f"{format_size(needed_bytes)} needed, "
            f"{format_size(free)} free",
            kind="disk", limit_bytes=free, needed_bytes=needed_bytes)


#: Default age (seconds) an orphaned ``*.tmp`` file must reach before
#: :func:`gc_stale_tmp` removes it.  Overridable per deployment with
#: ``$REPRO_TMP_MAX_AGE_S`` (float seconds) — long-running writers on a
#: slow shared filesystem may need a larger guard, scratch dirs on CI a
#: smaller one.
DEFAULT_TMP_MAX_AGE_S = 3600.0


def resolve_tmp_max_age(max_age_s: Optional[float] = None) -> float:
    """The effective GC age guard: explicit arg, env override, default."""
    if max_age_s is not None:
        return max_age_s
    env = os.environ.get("REPRO_TMP_MAX_AGE_S")
    if env:
        try:
            return float(env)
        except ValueError:
            warn_resource(
                f"ignoring invalid REPRO_TMP_MAX_AGE_S={env!r} "
                f"(expected float seconds); using the "
                f"{DEFAULT_TMP_MAX_AGE_S:.0f}s default")
    return DEFAULT_TMP_MAX_AGE_S


def gc_stale_tmp(directory: str, *, max_age_s: Optional[float] = None,
                 now: Optional[float] = None) -> int:
    """Remove orphaned temp files left behind by killed writers.

    Atomic writes in the trace cache, checkpoint journal and telemetry
    manifest all go through a ``*.tmp`` sibling that is renamed into
    place; a writer killed between create and rename leaks the sibling
    forever.  Called on directory *open*, this sweeps any file whose name
    carries a ``.tmp`` segment (``foo.npz.1234.tmp.npz``,
    ``manifest.json.tmp``, ``<key>.jsonl.tmp``) and whose mtime is older
    than ``max_age_s`` — the age guard keeps a concurrently *live* writer
    in another process safe.  ``max_age_s`` defaults to
    ``$REPRO_TMP_MAX_AGE_S``, else :data:`DEFAULT_TMP_MAX_AGE_S`; a file
    exactly at the guard age is stale (strict ``<`` keeps it only while
    younger).  Returns the number of files removed.
    """
    max_age_s = resolve_tmp_max_age(max_age_s)
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    if now is None:
        now = time.time()
    removed = 0
    for name in names:
        stem = name.split("/")[-1]
        parts = stem.split(".")
        if "tmp" not in parts[1:]:
            continue
        path = os.path.join(directory, name)
        try:
            if not os.path.isfile(path):
                continue
            if now - os.path.getmtime(path) < max_age_s:
                continue
            os.unlink(path)
            removed += 1
        except OSError:  # pragma: no cover - raced with another GC
            continue
    if removed:
        logger.info("removed %d orphaned temp file(s) under %s",
                    removed, directory)
    return removed


def warn_resource(message: str) -> None:
    """Uniform, greppable resource-governor warning.

    Goes out both as a :mod:`warnings` warning (the API contract existing
    callers and tests rely on) and as a warning-level log record, so a
    ``-v`` console and the telemetry stream see it the moment it is
    raised.
    """
    logger.warning("[resource-governor] %s", message)
    warnings.warn(f"[resource-governor] {message}", stacklevel=3)
