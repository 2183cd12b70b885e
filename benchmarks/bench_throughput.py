"""Performance benchmarks: events/second of the classifiers and protocol

simulators on a real benchmark trace.  These guard against performance
regressions in the hot loops (the library's usefulness depends on keeping
multi-million-event traces tractable), and pin the sweep engine's
end-to-end speedup over the pre-refactor workflow (see
``test_fig5_sweep_end_to_end_speedup``).  Each gate asserts on the
numbers it measures; they are reported through pytest-benchmark's
``extra_info`` and nothing is written into the checkout.  Recorded runs
live in EXPERIMENTS.md."""

import gc
import time

import pytest

from repro.analysis.engine import SharedPrecompute, SweepEngine
from repro.runtime.resources import peak_rss_bytes
from repro.classify import (
    DuboisClassifier,
    EggersClassifier,
    TorrellasClassifier,
)
from repro.mem import BlockMap
from repro.mem.addresses import PAPER_BLOCK_SIZES
from repro.protocols import run_protocol
from repro.trace.cache import WorkloadTraceCache
from repro.trace.events import LOAD, STORE
from repro.workloads import make_workload


@pytest.mark.parametrize("classifier", [DuboisClassifier, EggersClassifier,
                                        TorrellasClassifier])
def test_classifier_throughput(benchmark, mp3d200, classifier):
    bm = BlockMap(64)
    result = benchmark.pedantic(
        lambda: classifier.classify_trace(mp3d200, bm),
        rounds=3, iterations=1)
    assert result.total > 0
    eps = int(len(mp3d200) / benchmark.stats.stats.mean)
    rss_kb = peak_rss_bytes("self") // 1024
    benchmark.extra_info["events"] = len(mp3d200)
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["max_rss_kb"] = rss_kb


@pytest.mark.parametrize("protocol", ["MIN", "OTF", "RD", "SD", "SRD",
                                      "WBWI", "MAX"])
def test_protocol_throughput(benchmark, mp3d200, protocol):
    result = benchmark.pedantic(
        lambda: run_protocol(protocol, mp3d200, 64),
        rounds=3, iterations=1)
    assert result.misses > 0
    eps = int(len(mp3d200) / benchmark.stats.stats.mean)
    rss_kb = peak_rss_bytes("self") // 1024
    benchmark.extra_info["events"] = len(mp3d200)
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["max_rss_kb"] = rss_kb


#: Minimum vectorized/interpreted speedup per kernel gate.  Each bound is
#: 5x against the interpreted leg it was set on.  Dubois's interpreted
#: leg is the Appendix A transliteration, which this gate's interpreted
#: leg timed r = 1.59x slower (median of 16 alternating pairs) than the
#: store-epoch streaming classifier the 5x was set against, so its bound
#: is 5 * r rounded up to 0.1: the same demand on the kernel itself
#: (EXPERIMENTS.md, "One streaming Dubois classifier").  MAX and SD join
#: at OTF's 5x; they read 15.6-22.2x and 6.6-9.0x over six runs
#: (EXPERIMENTS.md, "MAX as a queue").
KERNEL_SPEEDUP_BOUND = {("classify", "dubois"): 8.0,
                        ("protocol", "OTF"): 5.0,
                        ("protocol", "MAX"): 5.0,
                        ("protocol", "SD"): 5.0}


@pytest.mark.parametrize("kind,which", sorted(KERNEL_SPEEDUP_BOUND))
def test_kernel_speedup(benchmark, mp3d1000, kind, which):
    """Kernel gate: the vectorized cells must beat the interpreted ones by
    :data:`KERNEL_SPEEDUP_BOUND`, single-core.

    Both legs run the identical engine cell path
    (:class:`SharedPrecompute` at paper scale, MP3D1000/B64) and must
    produce bit-identical results; only the ``kernel`` mode differs: the
    vectorized leg runs the cell's kernel, the interpreted leg the
    classifier's own ``classify_trace`` (or the protocol's simulator).
    Each round builds a fresh precompute and first runs the same cell at
    B16, as a sweep's earlier block size would, so neither timed B64 cell
    pays first-call costs; no derived state carries over between the
    two cells in either mode.
    """
    pytest.importorskip("numpy")

    def cell_round(kernel):
        pre = SharedPrecompute(mp3d1000, kernel=kernel)
        run = (lambda bb: pre.run_classifier(which, bb)) if kind == "classify" \
            else (lambda bb: pre.run_protocol(which, bb))
        run(16)
        t0 = time.perf_counter()
        result = run(64)
        return result, time.perf_counter() - t0

    gc.collect()  # shed prior benchmarks' garbage outside the timed region
    t_vec = t_int = 1e9
    for _ in range(5):
        res_vec, dt = cell_round("vectorized")
        t_vec = min(t_vec, dt)
    for _ in range(3):
        res_int, dt = cell_round("interpreted")
        t_int = min(t_int, dt)
    assert res_vec == res_int  # same counters, not just faster

    benchmark.pedantic(lambda: cell_round("vectorized")[0],
                       rounds=1, iterations=1)
    events = len(mp3d1000)
    speedup = t_int / t_vec
    eps = int(events / t_vec)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bound = KERNEL_SPEEDUP_BOUND[kind, which]
    assert speedup >= bound, (
        f"{kind}-{which} kernel speedup {speedup:.2f}x < {bound}x")


def test_workload_generation_throughput(benchmark):
    trace = benchmark.pedantic(
        lambda: make_workload("MP3D200").generate(), rounds=1, iterations=1)
    assert len(trace) > 10_000
    benchmark.extra_info["events"] = len(trace)
    benchmark.extra_info["max_rss_kb"] = peak_rss_bytes("self") // 1024


def test_telemetry_overhead_under_3_percent(benchmark, mp3d1000,
                                            tmp_path_factory):
    """Telemetry gate: recording a run costs < 3 % end to end.

    Both legs run the same serial Fig.6-style grid — MP3D1000's seven
    protocols at B=64 and B=1024 — and the recorded leg adds a full
    :class:`~repro.obs.RunTelemetry`: the ``run`` root span, per-cell
    spans, metrics, the manifest fold, the events.jsonl writes and
    trace-id/span-id threading on every record.  The budget holds
    because instrumentation is per *cell*, not per event — a grid emits
    tens of records while simulating millions of references — and
    because telemetry-off call sites hit the no-op
    :data:`~repro.obs.NULL_RECORDER`.  The grid takes most of a second
    a leg, so a run's fixed cost (its directory, stream and manifest)
    is priced against work rather than read as several percent of a
    leg that lasts a few tens of milliseconds.

    Methodology: the legs run as *interleaved off/on pairs* and the
    overhead is the **minimum pairwise on/off ratio**.  A real
    instrumentation cost inflates every pair, so it lower-bounds the
    minimum; transient machine load (CI boxes, the 1-core container)
    only spikes individual samples and cancels out — a plain
    min-per-leg comparison flaps by 10 %+ on a loaded host.
    """
    sizes = (64, 1024)
    tel = str(tmp_path_factory.mktemp("telemetry"))

    def grid(telemetry_dir=None):
        return SweepEngine(mp3d1000,
                           telemetry_dir=telemetry_dir).protocol_grid(sizes)

    grid()  # warm page cache / allocator outside the timed region
    t_off = t_on = 1e9
    ratios = []
    for _ in range(6):
        t0 = time.perf_counter()
        grid()
        off = time.perf_counter() - t0
        t0 = time.perf_counter()
        grid(tel)
        on = time.perf_counter() - t0
        ratios.append(on / off)
        t_off, t_on = min(t_off, off), min(t_on, on)

    result = benchmark.pedantic(lambda: grid(tel), rounds=1, iterations=1)
    assert len(result) == 2 * 7
    overhead = min(ratios) - 1.0
    median = sorted(ratios)[len(ratios) // 2] - 1.0
    benchmark.extra_info["telemetry_off_sec"] = round(t_off, 4)
    benchmark.extra_info["telemetry_on_sec"] = round(t_on, 4)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
    benchmark.extra_info["median_overhead_pct"] = round(median * 100, 2)

    assert overhead < 0.03, (
        f"telemetry overhead {overhead * 100:.2f}% >= 3%")


def test_fig5_sweep_end_to_end_speedup(benchmark, tmp_path_factory):
    """Acceptance benchmark: the sweep engine must deliver >= 2x end-to-end
    on a Fig.5-style multi-block-size classification sweep.

    * **before** — the pre-refactor workflow: generate the trace (every run
      regenerated it; there was no cache), then stream the event tuples
      through the Appendix A transliteration
      (:class:`DuboisClassifier`'s per-event ``access``) once per block
      size, recomputing the block address per access.
    * **after** — the engine workflow: load the trace from the warm on-disk
      npz cache (generated once, adopted as columns without decoding) and
      run :meth:`SweepEngine.classify_sweep` over the same block sizes:
      the Dubois kernel cells of every size in one batch-major
      :func:`~repro.kernels.run_kernel_cells` pass (one batch plan, each
      batch's context built once and shared by every block size).

    Both legs produce identical breakdowns; methodology and reference
    numbers live in ``EXPERIMENTS.md``.
    """
    name = "MP3D200"
    cache = WorkloadTraceCache(str(tmp_path_factory.mktemp("traces")))
    cache.get(name)  # warm the on-disk cache outside the timed region

    def before():
        trace = make_workload(name).generate()
        events = trace.events  # the event tuples, decoded once
        breakdowns = []
        for bb in PAPER_BLOCK_SIZES:
            clf = DuboisClassifier(trace.num_procs, BlockMap(bb))
            access = clf.access
            for proc, op, addr in events:
                if op == LOAD or op == STORE:
                    access(proc, op, addr)
            breakdowns.append(clf.finish())
        return tuple(breakdowns)

    def after():
        return SweepEngine(cache.get(name)).classify_sweep(PAPER_BLOCK_SIZES)

    t_before = 1e9
    for _ in range(2):
        t0 = time.perf_counter()
        expected = before()
        t_before = min(t_before, time.perf_counter() - t0)

    sweep = benchmark.pedantic(after, rounds=3, iterations=1)
    t_after = benchmark.stats.stats.min

    assert sweep.breakdowns == expected  # same results, not just faster
    events = sweep.breakdowns[0].data_refs * len(PAPER_BLOCK_SIZES)
    ratio = t_before / t_after
    benchmark.extra_info["before_sec"] = round(t_before, 3)
    benchmark.extra_info["after_sec"] = round(t_after, 3)
    benchmark.extra_info["speedup"] = round(ratio, 2)
    benchmark.extra_info["classified_refs"] = events
    benchmark.extra_info["refs_per_sec_after"] = int(events / t_after)
    assert ratio >= 2.0, f"end-to-end sweep speedup {ratio:.2f}x < 2x"
