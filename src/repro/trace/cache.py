"""On-disk (+ in-memory) cache of generated workload traces.

Generating a benchmark trace costs minutes of simulated-machine time;
re-running an experiment over the same workload should not pay that again.
:class:`WorkloadTraceCache` stores each generated trace as a compact
``.npz`` keyed by **workload name, full configuration, seed, library
version and ``.npz`` format**, so a cache entry is invalidated
automatically whenever anything that could change the generated events,
or the layout they are stored in, changes.

The cache is hardened against the failure modes of long production runs:

* **Atomic writes** — entries are written to a temporary sibling and
  renamed into place (:func:`repro.trace.io.save_npz`), so a killed
  process never leaves a truncated entry behind the real name.
* **Integrity checking** — each entry stores a content checksum verified
  on load; a corrupt or truncated entry is *quarantined* (renamed to
  ``<entry>.corrupt``) and transparently regenerated instead of crashing
  the caller.
* **Inter-process locking** — generation takes a per-entry lock file, so
  N concurrent sweeps over the same workload generate its trace once
  instead of stampeding.
* **Disk budget** — a free-space preflight refuses to start a write the
  filesystem cannot hold (raising a structured
  :class:`~repro.errors.ResourceExhaustedError` instead of half-writing
  an entry), and an optional ``max_bytes`` quota (``--cache-max-bytes``)
  evicts least-recently-used entries under an inter-process lock so the
  cache directory never outgrows its budget.
* **Quarantine GC** — quarantined corrupt entries (``*.corrupt``) are
  garbage-collected on cache open, keeping only the newest per key for
  post-mortem, so repeated corruption (or version churn) cannot
  accumulate unbounded evidence files.

Used by the sweep engine (:mod:`repro.analysis.engine`), the CLI
(``--trace-cache``), ``benchmarks/conftest.py`` and
``examples/paper_scale.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
import warnings
from typing import Dict, List, Optional, Tuple, Union

from ..errors import TraceFormatError
from ..obs.recorder import get_recorder
from .io import NPZ_FORMAT, load_npz, save_npz
from .trace import Trace

logger = logging.getLogger(__name__)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_TRACE_CACHE"

#: Upper bound on the on-disk bytes per trace event, used for the
#: free-space preflight before writing a new entry.  An ``.npz`` entry
#: stores three uncompressed columns, each at most 8 bytes wide (24 is the
#: worst case; registry traces take 6 or 4).
BYTES_PER_EVENT_ON_DISK = 24

#: Fixed headroom added to every entry-size estimate (archive framing,
#: metadata, temp-file sibling during the atomic rename).
ENTRY_SLACK_BYTES = 256 << 10

_CORRUPT_RE = re.compile(r"^(?P<key>.+\.npz)\.corrupt(?:\.\d+)?$")


def default_cache_dir() -> str:
    """``$REPRO_TRACE_CACHE`` or ``~/.cache/repro/traces``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "traces")


def workload_cache_key(workload) -> str:
    """Stable cache key for one workload configuration.

    Combines the workload's name, its full configuration dictionary, its
    seed, the library version and the ``.npz`` format; any difference
    produces a different key.
    """
    from .. import __version__

    payload = {
        "workload": workload.name,
        "label": workload.label,
        "config": workload.describe_config(),
        "seed": workload.seed,
        "version": __version__,
        "format": NPZ_FORMAT,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    digest = hashlib.sha1(blob.encode()).hexdigest()[:16]
    return f"{workload.label}-{digest}"


@contextlib.contextmanager
def entry_lock(path: str):
    """Exclusive inter-process lock guarding one cache entry's generation.

    Blocks until the lock is acquired (a concurrent generator of the same
    entry is *minutes* of work worth waiting for).  The ``<path>.lock``
    file is left in place — unlinking a locked file would race with other
    waiters.  Degrades to no locking where ``fcntl`` is unavailable (the
    atomic rename still keeps concurrent writers safe, they just both pay
    the generation).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    lock_path = f"{path}.lock"
    os.makedirs(os.path.dirname(lock_path) or ".", exist_ok=True)
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def gc_quarantined(directory: str) -> int:
    """Garbage-collect quarantined entries, keeping the newest per key.

    Quarantine preserves a corrupt entry for post-mortem, but an unlucky
    cache (bad disk, repeated kills mid-write) would otherwise accumulate
    one ``.corrupt`` file per incident forever.  For each cache key the
    newest quarantined file is kept as evidence and all older ones are
    deleted.  Returns the number of files removed.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    by_key: Dict[str, List[str]] = {}
    for name in names:
        m = _CORRUPT_RE.match(name)
        if m:
            by_key.setdefault(m.group("key"), []).append(name)
    removed = 0
    for key, files in by_key.items():
        if len(files) < 2:
            continue
        paths = [os.path.join(directory, f) for f in files]

        def _mtime(p: str) -> float:
            try:
                return os.path.getmtime(p)
            except OSError:
                return float("-inf")

        paths.sort(key=lambda p: (_mtime(p), p))
        for stale in paths[:-1]:
            try:
                os.remove(stale)
                removed += 1
            except OSError:  # pragma: no cover - racing GC in another proc
                pass
    return removed


class WorkloadTraceCache:
    """Generate-once cache of workload traces.

    Parameters
    ----------
    directory:
        Where ``.npz`` entries live (created on first write).  Defaults to
        :func:`default_cache_dir`.
    memory:
        Keep loaded traces in an in-process dictionary as well, so repeated
        ``get`` calls within one process return the same object without
        touching disk.
    max_bytes:
        Optional disk quota for the cache directory (``--cache-max-bytes``
        on the CLI).  After each write, least-recently-used entries are
        evicted under an inter-process lock until the directory fits the
        quota again; recency is the entry's mtime, which ``get`` bumps on
        every disk hit.
    """

    def __init__(self, directory: Optional[str] = None, *,
                 memory: bool = True, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            from ..errors import ConfigError
            raise ConfigError(
                f"cache max_bytes must be positive, got {max_bytes}")
        self.directory = directory or default_cache_dir()
        self.max_bytes = max_bytes
        self._memory: Optional[Dict[str, Trace]] = {} if memory else None
        # Opening the cache adopts responsibility for its hygiene: drop
        # all but the newest quarantined file per key (satellite of the
        # corruption hardening — evidence is bounded, not unbounded) and
        # reap `*.tmp.npz` siblings leaked by writers that were SIGKILLed
        # between create and atomic rename (the age guard in gc_stale_tmp
        # protects writes concurrently in flight from another process).
        from ..runtime.resources import gc_stale_tmp

        gc_quarantined(self.directory)
        gc_stale_tmp(self.directory)

    # ------------------------------------------------------------------
    def _resolve(self, workload: Union[str, object]):
        if isinstance(workload, str):
            from ..workloads.registry import make_workload
            return make_workload(workload)
        return workload

    def path_for(self, workload: Union[str, object]) -> str:
        """On-disk path of the cache entry for a workload (or its name)."""
        wl = self._resolve(workload)
        return os.path.join(self.directory, f"{workload_cache_key(wl)}.npz")

    # ------------------------------------------------------------------
    def _load_entry(self, path: str) -> Optional[Trace]:
        """Load one entry, quarantining it on any integrity failure."""
        if not os.path.exists(path):
            return None
        try:
            return load_npz(path)
        except TraceFormatError as exc:
            self._quarantine(path, exc)
            return None

    def _quarantine(self, path: str, exc: Exception) -> None:
        """Move a corrupt entry aside so the evidence survives regeneration.

        The quarantine name is unique (``.corrupt``, ``.corrupt.1``, …) so
        a repeat corruption of the same key never overwrites the earlier
        evidence; :func:`gc_quarantined` keeps only the newest on the next
        cache open.
        """
        quarantined = f"{path}.corrupt"
        n = 0
        while os.path.exists(quarantined):
            n += 1
            quarantined = f"{path}.corrupt.{n}"
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - entry vanished underneath us
            quarantined = "<gone>"
        logger.warning("quarantined corrupt trace cache entry %r -> %r "
                       "(%s); regenerating", path, quarantined, exc)
        warnings.warn(
            f"quarantined corrupt trace cache entry {path!r} -> "
            f"{quarantined!r} ({exc}); regenerating", stacklevel=4)

    def get(self, workload: Union[str, object]) -> Trace:
        """Load the workload's trace from cache, generating it on a miss.

        Corrupt or truncated entries are quarantined and regenerated
        transparently; concurrent callers (other processes included)
        generate each entry at most once thanks to a per-entry lock file.
        """
        wl = self._resolve(workload)
        key = workload_cache_key(wl)
        rec = get_recorder()
        if self._memory is not None and key in self._memory:
            rec.metric("cache.hit", 1, key=key, where="memory")
            return self._memory[key]
        path = os.path.join(self.directory, f"{key}.npz")
        with rec.span("cache.lookup", key=key):
            trace = self._load_entry(path)
        if trace is None:
            rec.metric("cache.miss", 1, key=key)
            logger.info("trace cache miss for %s; generating", key)
            os.makedirs(self.directory, exist_ok=True)
            with entry_lock(path):
                # A concurrent holder may have generated the entry while
                # we waited for the lock: re-check before regenerating.
                trace = self._load_entry(path)
                if trace is None:
                    trace = wl.generate()
                    self._preflight_write(trace)
                    save_npz(trace, path)
            self._enforce_quota(protect=path)
        else:
            rec.metric("cache.hit", 1, key=key, where="disk")
            logger.info("trace cache hit for %s", key)
            self._touch(path)
        if self._memory is not None:
            self._memory[key] = trace
        return trace

    # ------------------------------------------------------------------
    # disk budget
    # ------------------------------------------------------------------
    @staticmethod
    def _touch(path: str) -> None:
        """Bump an entry's mtime: our LRU clock for quota eviction."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - evicted by a concurrent proc
            pass

    def _preflight_write(self, trace: Trace) -> None:
        """Refuse to start a write the filesystem cannot hold."""
        from ..runtime.resources import ensure_free_space

        needed = BYTES_PER_EVENT_ON_DISK * len(trace) + ENTRY_SLACK_BYTES
        ensure_free_space(self.directory, needed, label="trace cache")

    def _scan_entries(self) -> List[Tuple[str, int, float]]:
        """Quota-relevant files as ``(path, size, mtime)``, oldest first.

        Counts entries and quarantined evidence; lock files are excluded
        (they are empty and must stay for waiters holding them open).
        """
        entries: List[Tuple[str, int, float]] = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return entries
        for name in names:
            if not (name.endswith(".npz") or _CORRUPT_RE.match(name)):
                continue
            path = os.path.join(self.directory, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((path, st.st_size, st.st_mtime))
        entries.sort(key=lambda e: (e[2], e[0]))
        return entries

    def _enforce_quota(self, protect: Optional[str] = None) -> int:
        """Evict LRU entries until the directory fits ``max_bytes``.

        Runs under a cache-wide inter-process lock so two processes never
        double-count or race deletions.  ``protect`` (the entry just
        written) is never evicted — the caller is about to use it.
        Returns the number of files evicted.
        """
        if self.max_bytes is None:
            return 0
        evicted = 0
        with entry_lock(os.path.join(self.directory, ".gc")):
            entries = self._scan_entries()
            total = sum(size for _, size, _ in entries)
            for path, size, _ in entries:
                if total <= self.max_bytes:
                    break
                if (protect is not None
                        and os.path.abspath(path) == os.path.abspath(protect)):
                    continue
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - concurrent eviction
                    continue
                # The lock file of an evicted entry is dead weight now; a
                # concurrent generator re-creates it on demand.
                with contextlib.suppress(OSError):
                    os.remove(f"{path}.lock")
                total -= size
                evicted += 1
            if total > self.max_bytes:
                warnings.warn(
                    f"trace cache still {total} bytes after eviction "
                    f"(quota {self.max_bytes}): the in-use entry alone "
                    "exceeds the quota", stacklevel=3)
        return evicted

    def disk_usage_bytes(self) -> int:
        """Current quota-relevant size of the cache directory."""
        return sum(size for _, size, _ in self._scan_entries())

    def clear_memory(self) -> None:
        """Drop the in-process cache (disk entries are kept)."""
        if self._memory is not None:
            self._memory.clear()
