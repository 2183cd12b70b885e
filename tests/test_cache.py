"""Failure-mode suite for the hardened workload trace cache.

Covers the acceptance criterion that a deliberately truncated cache entry
is detected on load, quarantined, and regenerated transparently — no API
consumer sees an exception — plus key invalidation on config/seed/version
change and the inter-process generation lock.
"""

import multiprocessing
import os
import time
import warnings

import pytest

from chaos import corrupt_file
from repro.errors import CacheIntegrityError, TraceFormatError
from repro.trace.cache import WorkloadTraceCache, workload_cache_key
from repro.trace.io import load_npz, save_npz
from repro.trace.trace import Trace
from repro.workloads.registry import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("MATMUL24")


@pytest.fixture
def cache(tmp_path):
    return WorkloadTraceCache(str(tmp_path), memory=False)


# ----------------------------------------------------------------------
# integrity: checksum, truncation, quarantine, regeneration
# ----------------------------------------------------------------------
class TestIntegrity:
    def test_save_embeds_verified_checksum(self, tmp_path, workload):
        trace = workload.generate()
        path = str(tmp_path / "t.npz")
        save_npz(trace, path)
        assert load_npz(path) == trace  # verifies by default

    def test_truncated_entry_raises_integrity_error(self, tmp_path,
                                                    workload):
        path = str(tmp_path / "t.npz")
        save_npz(workload.generate(), path)
        corrupt_file(path, mode="truncate")
        with pytest.raises(CacheIntegrityError):
            load_npz(path)

    def test_garbled_entry_raises_integrity_error(self, tmp_path, workload):
        path = str(tmp_path / "t.npz")
        save_npz(workload.generate(), path)
        size = os.path.getsize(path)
        corrupt_file(path, mode="garble", offset=size // 2, length=32)
        # Depending on where the damage lands this surfaces as a zip/zlib
        # failure or a checksum mismatch; both are TraceFormatError.
        with pytest.raises(TraceFormatError):
            load_npz(path)

    @pytest.mark.parametrize("mode", ["truncate", "garble"])
    def test_corrupt_entry_quarantined_and_regenerated(self, cache,
                                                       workload, mode):
        """The headline guarantee: consumers never see the corruption."""
        original = cache.get(workload)
        path = cache.path_for(workload)
        corrupt_file(path, mode=mode, offset=os.path.getsize(path) // 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            regenerated = cache.get(workload)  # must not raise
        assert regenerated == original
        assert os.path.exists(path + ".corrupt"), "evidence is preserved"
        assert load_npz(path) == original, "entry was rewritten intact"
        assert any("quarantined" in str(w.message) for w in caught)

    def test_memory_cache_bypasses_disk_corruption(self, tmp_path,
                                                   workload):
        cache = WorkloadTraceCache(str(tmp_path), memory=True)
        first = cache.get(workload)
        corrupt_file(cache.path_for(workload), mode="truncate")
        assert cache.get(workload) is first  # in-process hit, no disk read

    def test_atomic_save_leaves_no_tmp_files(self, tmp_path, workload):
        path = str(tmp_path / "t.npz")
        save_npz(workload.generate(), path)
        assert os.listdir(str(tmp_path)) == ["t.npz"]

    def test_legacy_entry_without_checksum_still_loads(self, tmp_path,
                                                       workload):
        import json

        import numpy as np

        trace = workload.generate()
        cols = trace.columns()
        header = json.dumps({"name": trace.name,
                             "num_procs": trace.num_procs, "meta": {}})
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(path, proc=cols.proc, op=cols.op,
                            addr=cols.addr, header=np.array(header))
        loaded = load_npz(path)
        assert loaded.num_procs == trace.num_procs
        assert len(loaded) == len(trace)

    def _save_format1(self, trace, path):
        """Write ``trace`` as format 1 did: compressed int64 columns and a
        checksum over them."""
        import json

        import numpy as np

        from repro.trace.io import _array_checksum

        cols = trace.columns()
        proc, op, addr = (column.astype(np.int64)
                          for column in (cols.proc, cols.op, cols.addr))
        header = json.dumps({"name": trace.name,
                             "num_procs": trace.num_procs, "meta": {},
                             "checksum": _array_checksum(proc, op, addr)})
        np.savez_compressed(path, proc=proc, op=op, addr=addr,
                            header=np.array(header))

    def test_format1_entry_loads_and_verifies(self, tmp_path, workload):
        trace = workload.generate()
        path = str(tmp_path / "v1.npz")
        self._save_format1(trace, path)
        assert load_npz(path) == trace

    @pytest.mark.parametrize("mode", ["truncate", "garble"])
    def test_corrupt_format1_entry_raises(self, tmp_path, workload, mode):
        path = str(tmp_path / "v1.npz")
        self._save_format1(workload.generate(), path)
        corrupt_file(path, mode=mode, offset=os.path.getsize(path) // 2,
                     length=32)
        with pytest.raises(TraceFormatError):
            load_npz(path)


# ----------------------------------------------------------------------
# key invalidation
# ----------------------------------------------------------------------
class TestKeyInvalidation:
    def test_key_changes_with_config(self):
        assert (workload_cache_key(make_workload("LU32"))
                != workload_cache_key(make_workload("LU64")))

    def test_key_changes_with_seed(self, workload):
        class Reseeded:
            name = workload.name
            label = workload.label
            seed = workload.seed + 1

            def describe_config(self):
                return workload.describe_config()

        assert (workload_cache_key(workload)
                != workload_cache_key(Reseeded()))

    def test_key_changes_with_version(self, workload, monkeypatch):
        import repro

        before = workload_cache_key(workload)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert workload_cache_key(workload) != before

    def test_key_changes_with_format(self, workload, monkeypatch):
        """A new ``.npz`` format regenerates each entry once instead of
        reading the old layout forever."""
        import repro.trace.cache as cache_mod

        before = workload_cache_key(workload)
        monkeypatch.setattr(cache_mod, "NPZ_FORMAT", cache_mod.NPZ_FORMAT + 1)
        assert workload_cache_key(workload) != before

    def test_stale_entry_is_not_picked_up(self, cache, workload,
                                          monkeypatch):
        import repro

        cache.get(workload)
        old_path = cache.path_for(workload)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        new_path = cache.path_for(workload)
        assert new_path != old_path
        assert not os.path.exists(new_path)


# ----------------------------------------------------------------------
# concurrent generation (inter-process lock)
# ----------------------------------------------------------------------
class _MarkedWorkload:
    """Workload that records each generate() call in a shared file."""

    name = "marked"
    label = "marked"
    seed = 7

    def __init__(self, marker_path):
        self.marker_path = marker_path

    def describe_config(self):
        return {"marker": "fixed"}

    def generate(self):
        with open(self.marker_path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        time.sleep(0.3)  # widen the stampede window
        return make_workload("MATMUL24").generate()


def _concurrent_get(directory, marker):
    WorkloadTraceCache(directory, memory=False).get(
        _MarkedWorkload(marker))


class TestConcurrency:
    def test_two_processes_generate_once(self, tmp_path):
        directory = str(tmp_path)
        marker = str(tmp_path / "generations")
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_concurrent_get,
                             args=(directory, marker))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        with open(marker) as fh:
            generations = fh.read().splitlines()
        assert len(generations) == 1, \
            f"stampede: {len(generations)} generations"
        # And the winner's entry is valid for later readers.
        trace = WorkloadTraceCache(directory, memory=False).get(
            _MarkedWorkload(marker))
        assert isinstance(trace, Trace)

    def test_lock_file_left_in_place(self, cache, workload):
        cache.get(workload)
        assert os.path.exists(cache.path_for(workload) + ".lock")


# ----------------------------------------------------------------------
# disk budget: LRU quota eviction + quarantine GC
# ----------------------------------------------------------------------
class _TaggedWorkload:
    """Distinct cache keys over identical (tiny) trace content."""

    name = "tagged"

    def __init__(self, tag):
        self.label = f"tagged{tag}"
        self.seed = tag

    def describe_config(self):
        return {"tag": self.seed}

    def generate(self):
        return make_workload("MATMUL24").generate()


class TestDiskBudget:
    def _entry_bytes(self, tmp_path):
        probe = WorkloadTraceCache(str(tmp_path / "probe"), memory=False)
        probe.get(_TaggedWorkload(0))
        return os.path.getsize(probe.path_for(_TaggedWorkload(0)))

    def test_quota_never_exceeded_after_eviction(self, tmp_path):
        """Acceptance: with a quota set, every write ends under it."""
        entry = self._entry_bytes(tmp_path)
        quota = int(2.5 * entry)
        cache = WorkloadTraceCache(str(tmp_path / "c"), memory=False,
                                   max_bytes=quota)
        for tag in range(5):
            cache.get(_TaggedWorkload(tag))
            assert cache.disk_usage_bytes() <= quota
        # The freshest entry always survives its own write.
        assert os.path.exists(cache.path_for(_TaggedWorkload(4)))

    def test_eviction_is_least_recently_used(self, tmp_path):
        entry = self._entry_bytes(tmp_path)
        cache = WorkloadTraceCache(str(tmp_path / "c"), memory=False,
                                   max_bytes=int(2.5 * entry))
        a, b = _TaggedWorkload(1), _TaggedWorkload(2)
        cache.get(a)
        cache.get(b)
        # Make b the stale entry regardless of write timing granularity.
        os.utime(cache.path_for(b), (1, 1))
        cache.get(_TaggedWorkload(3))  # pushes the cache over quota
        assert os.path.exists(cache.path_for(a))
        assert not os.path.exists(cache.path_for(b)), "LRU entry evicted"
        assert not os.path.exists(cache.path_for(b) + ".lock"), \
            "the evicted entry's lock file goes with it"

    def test_disk_hit_refreshes_recency(self, tmp_path):
        entry = self._entry_bytes(tmp_path)
        cache = WorkloadTraceCache(str(tmp_path / "c"), memory=False,
                                   max_bytes=int(2.5 * entry))
        a, b = _TaggedWorkload(1), _TaggedWorkload(2)
        cache.get(a)
        cache.get(b)
        os.utime(cache.path_for(a), (1, 1))  # a is ancient...
        cache.get(a)                         # ...until this disk hit
        os.utime(cache.path_for(b), (2, 2))
        cache.get(_TaggedWorkload(3))
        assert os.path.exists(cache.path_for(a)), "recently read, kept"
        assert not os.path.exists(cache.path_for(b))

    def test_single_oversized_entry_warns_but_survives(self, tmp_path):
        cache = WorkloadTraceCache(str(tmp_path / "c"), memory=False,
                                   max_bytes=64)
        wl = _TaggedWorkload(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = cache.get(wl)
        assert isinstance(trace, Trace)
        assert os.path.exists(cache.path_for(wl))
        assert any("exceeds the quota" in str(w.message) for w in caught)

    def test_rejects_nonpositive_quota(self, tmp_path):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            WorkloadTraceCache(str(tmp_path), max_bytes=0)


class TestQuarantineGC:
    def test_repeat_corruption_gets_unique_quarantine_names(self, cache,
                                                            workload):
        path = cache.path_for(workload)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache.get(workload)
            corrupt_file(path, mode="truncate")
            cache.get(workload)
            corrupt_file(path, mode="truncate")
            cache.get(workload)
        assert os.path.exists(path + ".corrupt")
        assert os.path.exists(path + ".corrupt.1")

    def test_open_keeps_only_newest_quarantined_per_key(self, tmp_path):
        base = str(tmp_path / "entry.npz")
        for i, name in enumerate([base + ".corrupt", base + ".corrupt.1",
                                  base + ".corrupt.2"]):
            with open(name, "w") as fh:
                fh.write("evidence")
            os.utime(name, (100 + i, 100 + i))
        other = str(tmp_path / "other.npz.corrupt")
        with open(other, "w") as fh:
            fh.write("evidence")
        WorkloadTraceCache(str(tmp_path), memory=False)  # GC runs on open
        assert sorted(os.listdir(str(tmp_path))) == [
            "entry.npz.corrupt.2", "other.npz.corrupt"]

    def test_gc_returns_removed_count(self, tmp_path):
        from repro.trace.cache import gc_quarantined
        base = str(tmp_path / "entry.npz")
        for i in range(3):
            name = base + (".corrupt" if i == 0 else f".corrupt.{i}")
            with open(name, "w") as fh:
                fh.write("x")
            os.utime(name, (100 + i, 100 + i))
        assert gc_quarantined(str(tmp_path)) == 2
        assert gc_quarantined(str(tmp_path)) == 0
        assert gc_quarantined(str(tmp_path / "missing")) == 0
