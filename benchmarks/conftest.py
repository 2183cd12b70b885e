"""Shared benchmark fixtures.

Workload traces are generated once per configuration and cached as ``.npz``
under ``benchmarks/_trace_cache`` via :class:`repro.trace.WorkloadTraceCache`
so repeated benchmark runs only pay the simulation cost being measured, not
trace generation.  Entries are keyed by workload name, configuration, seed
and library version, so editing a generator invalidates its entries
automatically.
"""

from __future__ import annotations

import os

import pytest

from repro.trace.cache import WorkloadTraceCache

CACHE_DIR = os.path.join(os.path.dirname(__file__), "_trace_cache")

_CACHE = WorkloadTraceCache(CACHE_DIR)


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
