"""Shared benchmark fixtures.

Workload traces are generated once per configuration and cached as ``.npz``
under ``benchmarks/_trace_cache`` via :class:`repro.trace.WorkloadTraceCache`
so repeated benchmark runs only pay the simulation cost being measured, not
trace generation.  Entries are keyed by workload name, configuration, seed
and library version, so editing a generator invalidates its entries
automatically.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.trace.cache import WorkloadTraceCache

CACHE_DIR = os.path.join(os.path.dirname(__file__), "_trace_cache")

_CACHE = WorkloadTraceCache(CACHE_DIR)

#: Machine-readable perf trajectory, written at the repo root so future
#: PRs can diff throughput (see EXPERIMENTS.md for methodology).
BENCH_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_throughput.json")

_RECORDS: dict = {}


def host_cores() -> int:
    """Usable cores (affinity-aware, like the engine's job resolution)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def record_throughput(name: str, **fields) -> None:
    """Queue one named entry for ``BENCH_throughput.json``.

    Every entry is stamped with the process's peak RSS at record time
    (``ru_maxrss``, self + forked workers), so the JSON carries a memory
    trajectory alongside the events/s one.
    """
    from repro.runtime.resources import peak_rss_bytes

    fields.setdefault("max_rss_kb", max(peak_rss_bytes("self"),
                                        peak_rss_bytes("children")) // 1024)
    _RECORDS[name] = fields


@pytest.fixture(scope="session")
def bench_json():
    """The recorder function, as a fixture (conftest isn't importable)."""
    return record_throughput


def pytest_sessionfinish(session, exitstatus):
    """Merge this run's entries into ``BENCH_throughput.json``.

    Merging (not overwriting) keeps entries from partial runs — e.g. a
    shard-scaling-only run must not erase the serial throughput numbers.
    """
    if not _RECORDS:
        return
    payload = {"version": 1, "host_cores": host_cores(), "entries": {}}
    if os.path.exists(BENCH_JSON):
        try:
            with open(BENCH_JSON) as fh:
                previous = json.load(fh)
            if previous.get("version") == 1:
                payload["entries"].update(previous.get("entries", {}))
        except (json.JSONDecodeError, OSError):
            pass  # a corrupt file is rebuilt from scratch
    payload["entries"].update(_RECORDS)
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def workload_trace(name: str):
    """Generate-or-load the named workload's trace."""
    return _CACHE.get(name)


@pytest.fixture(scope="session")
def lu32():
    return workload_trace("LU32")


@pytest.fixture(scope="session")
def mp3d200():
    return workload_trace("MP3D200")


@pytest.fixture(scope="session")
def water16():
    return workload_trace("WATER16")


@pytest.fixture(scope="session")
def jacobi64():
    return workload_trace("JACOBI64")


@pytest.fixture(scope="session")
def small_suite(lu32, mp3d200, water16, jacobi64):
    """The paper's four benchmarks (Figure 5/6 scale), in paper order."""
    return [lu32, mp3d200, water16, jacobi64]


@pytest.fixture(scope="session")
def lu64():
    return workload_trace("LU64")


@pytest.fixture(scope="session")
def mp3d1000():
    return workload_trace("MP3D1000")


@pytest.fixture(scope="session")
def water40():
    return workload_trace("WATER40")


@pytest.fixture(scope="session")
def large_suite(lu64, mp3d1000, water40):
    """Scaled stand-ins for the paper's large data sets (section 7)."""
    return [lu64, mp3d1000, water40]
