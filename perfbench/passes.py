"""The benchmark's three workloads.

Each workload replays what one or more ``repro`` CLI invocations do with
default flags, by calling the same public library functions the CLI calls:

* ``fig6-warm`` -- ``repro fig6 --suite small --trace-cache``, restricted to
  WATER16 (``FIG6_TRACES``), the cheapest small-suite trace (about 4 s a pass on a quiet
  host, against 7 to 9 s for each of the other three), so that a run
  holds several passes.  Both block sizes and all seven protocols are
  kept;
* ``fig5-cold`` -- ``repro fig5 --suite small`` with no trace cache;
* ``finite-j2`` -- ``repro simulate MP3D1000 --capacity-blocks C --ways 4
  --jobs 2 --trace-cache`` for each C in (64, 256, 1024).

A workload offers three ways to produce one pass's output (per-cell
results plus the rendered text the CLI would print):

* :meth:`run_pass` -- the untraced pass, through the CLI's own entry
  functions (``figure6``, ``figure5``, ``SweepEngine.run_grid``);
* :meth:`run_traced_pass` -- the same work split at layer boundaries, with
  a span around each call into a layer;
* :meth:`oracle` -- the interpreted path (``kernel="interpreted"``), the
  reference every pass is checked against.

Warm workloads load their traces from a ``WorkloadTraceCache`` filled in
set-up, with the in-memory memo off, so every pass pays the ``.npz`` load
and the tuple decode again.  The seed goes to the workload constructors;
only MP3D's trace depends on it (cell assignment and collision partners).
"""

from __future__ import annotations

import collections
import contextlib
import statistics
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import kernels
from repro.analysis.engine import (
    ExecutionOptions,
    SharedPrecompute,
    SweepEngine,
    partition_dim_for,
)
from repro.analysis.figures import Fig5Panel, Fig6Panel, figure5, figure6
from repro.analysis.invariants import check_block_size_monotonicity
from repro.analysis.sweep import SweepResult
from repro.kernels import resolve_kernel
from repro.mem.addresses import PAPER_BLOCK_SIZES, BlockMap
from repro.obs.recorder import NullRecorder, use_recorder
from repro.protocols.finite import finite_spec
from repro.protocols.runner import ALL_PROTOCOLS, run_protocol
from repro.trace.cache import WorkloadTraceCache
from repro.workloads import LU, MP3D, Jacobi, Water
from repro.workloads.registry import SMALL_SUITE, make_workload

#: Seeded constructors of the registry's named configurations.  The
#: parameters must match ``repro.workloads.registry.NAMED_CONFIGS``;
#: :func:`seeded_workload` checks that they still do.
SEEDED_CONFIGS = {
    "LU32": lambda seed: LU(32, seed=seed),
    "WATER16": lambda seed: Water(16, time_steps=3, seed=seed),
    "JACOBI64": lambda seed: Jacobi(64, iterations=4, seed=seed),
    "MP3D200": lambda seed: MP3D(200, num_cells=64, time_steps=10,
                                 seed=seed),
    "MP3D1000": lambda seed: MP3D(1000, num_cells=192, time_steps=6,
                                  seed=seed),
}

#: Traces of ``fig6-warm``.
FIG6_TRACES = ("WATER16",)
#: Trace of ``finite-j2``.
FINITE_TRACE = "MP3D1000"
#: Finite-cache capacities (blocks) of ``finite-j2``.
FINITE_CAPACITIES = (64, 256, 1024)


def seeded_workload(name: str, seed: int):
    """The named configuration built with ``seed``."""
    wl = SEEDED_CONFIGS[name](seed)
    expected = dict(make_workload(name).describe_config(), seed=seed)
    if wl.describe_config() != expected:
        raise RuntimeError(
            f"{name}: benchmark configuration {wl.describe_config()} no "
            f"longer matches the registry's {expected}")
    return wl


def fill_cache(wl, directory: str) -> str:
    """Generate ``wl``'s traces into a trace cache at ``directory``."""
    cache = WorkloadTraceCache(directory, memory=False)
    for workload in wl.cache_workloads():
        cache.get(workload)
    return directory


class CacheOutcomes(NullRecorder):
    """A recorder that keeps only the trace cache's own hit and miss
    counts (``cache.hit``, ``cache.miss``); an entry that fails to load
    and is regenerated counts as a miss."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def metric(self, name: str, value, unit=None, **attrs) -> None:
        if name == "cache.hit":
            self.hits += value
        elif name == "cache.miss":
            self.misses += value


def cached_trace(spans, cache: WorkloadTraceCache, wl):
    """``cache.get(wl)`` in a ``trace.cache_get`` span that records
    whether the cache reported a hit."""
    with use_recorder(CacheOutcomes()) as outcomes:
        with spans.span("trace.cache_get") as sp:
            trace = cache.get(wl)
    sp["hit"] = outcomes.hits > 0 and outcomes.misses == 0
    return trace


@contextlib.contextmanager
def kernel_calls():
    """Count the calls made in this process into each vectorized kernel,
    by name (``dubois``, ``OTF``, ...), while the block runs.

    Calls made in worker processes are not seen.
    """
    calls: collections.Counter = collections.Counter()
    tables = (kernels.CLASSIFIER_KERNELS, kernels.PROTOCOL_KERNELS)
    saved = [dict(table) for table in tables]

    def counting(which, fn):
        def call(*args, **kwargs):
            calls[which] += 1
            return fn(*args, **kwargs)
        return call

    for table in tables:
        for which, fn in table.items():
            table[which] = counting(which, fn)
    try:
        yield calls
    finally:
        for table, original in zip(tables, saved):
            table.update(original)


def observed_mode(calls, which: str) -> str:
    """``vectorized`` if a kernel named ``which`` ran, else
    ``interpreted``."""
    return "vectorized" if calls[which] else "interpreted"


def render(tables: Sequence[str]) -> str:
    """Tables as the CLI prints them: each followed by a blank line."""
    return "".join(f"{table}\n\n" for table in tables)


@dataclass
class PassOutput:
    """One pass's per-cell results and its rendered text."""

    cells: Dict[str, object]
    text: str

    @property
    def refs(self) -> int:
        """Simulated data references: the sum over cells of the trace's
        data-reference count."""
        return sum(getattr(r, "breakdown", r).data_refs
                   for r in self.cells.values())


class Fig6Warm:
    """``repro fig6 --trace-cache``: seven protocols at B=64 and B=1024."""

    name = "fig6-warm"
    warm = True

    def __init__(self, seed: int, blocks: Sequence[int] = (64, 1024)):
        self.seed = seed
        self.blocks = tuple(blocks)
        self.cache_dir: Optional[str] = None

    def cache_workloads(self) -> List:
        return [seeded_workload(n, self.seed) for n in FIG6_TRACES]

    def kernel_modes(self, calls) -> Dict[str, str]:
        """The path each protocol cell took in a pass run under
        :func:`kernel_calls`."""
        return {f"protocol.{p}": observed_mode(calls, p)
                for p in ALL_PROTOCOLS}

    def _load(self) -> List:
        cache = WorkloadTraceCache(self.cache_dir, memory=False)
        return [cache.get(wl) for wl in self.cache_workloads()]

    def run_pass(self) -> PassOutput:
        traces = self._load()
        cells, tables = {}, []
        for bb in self.blocks:
            for name, panel in figure6(traces, bb).items():
                tables.append(panel.format_table())
                for proto, result in panel.results.items():
                    cells[f"{name}/B{bb}/{proto}"] = result
        return PassOutput(cells, render(tables))

    def run_traced_pass(self, spans) -> PassOutput:
        with spans.span("trace.cache_open"):
            cache = WorkloadTraceCache(self.cache_dir, memory=False)
        traces = [cached_trace(spans, cache, wl)
                  for wl in self.cache_workloads()]
        for trace in traces:
            with spans.span("trace.decode"):
                trace.events
        cells, tables = {}, []
        for bb in self.blocks:
            for trace in traces:
                results = {}
                for proto in ALL_PROTOCOLS:
                    with spans.span(f"protocols.cell.{proto}"):
                        results[proto] = run_protocol(proto, trace, bb)
                with spans.span("analysis.render"):
                    tables.append(Fig6Panel(trace_name=trace.name,
                                            block_bytes=bb,
                                            results=results).format_table())
                for proto, result in results.items():
                    cells[f"{trace.name}/B{bb}/{proto}"] = result
        return PassOutput(cells, render(tables))

    def oracle(self) -> PassOutput:
        traces = self._load()
        grids = {trace.name: SweepEngine(trace, kernel="interpreted")
                 .protocol_grid(self.blocks) for trace in traces}
        cells, tables = {}, []
        for bb in self.blocks:
            for trace in traces:
                results = {p: grids[trace.name][(bb, p)]
                           for p in ALL_PROTOCOLS}
                tables.append(Fig6Panel(trace_name=trace.name,
                                        block_bytes=bb,
                                        results=results).format_table())
                for proto, result in results.items():
                    cells[f"{trace.name}/B{bb}/{proto}"] = result
        return PassOutput(cells, render(tables))


class Fig5Cold:
    """``repro fig5``: generate the small suite, classify at nine sizes."""

    name = "fig5-cold"
    warm = False

    def __init__(self, seed: int, traces: Sequence[str] = SMALL_SUITE,
                 blocks: Sequence[int] = PAPER_BLOCK_SIZES):
        self.seed = seed
        self.trace_names = tuple(traces)
        self.blocks = tuple(blocks)
        self.cache_dir: Optional[str] = None

    def cache_workloads(self) -> List:
        return []

    def workloads(self) -> List:
        return [seeded_workload(n, self.seed) for n in self.trace_names]

    def kernel_modes(self, calls) -> Dict[str, str]:
        """The path the Dubois cells took in a pass run under
        :func:`kernel_calls`."""
        return {"classify.dubois": observed_mode(calls, "dubois")}

    @staticmethod
    def _cells(panels: Sequence[Fig5Panel]) -> Dict[str, object]:
        return {f"{p.sweep.trace_name}/B{bb}/dubois": bd
                for p in panels
                for bb, bd in zip(p.sweep.block_sizes, p.sweep.breakdowns)}

    def _output(self, panels: Dict[str, Fig5Panel]) -> PassOutput:
        return PassOutput(self._cells(panels.values()),
                          render(p.format() for p in panels.values()))

    def run_pass(self) -> PassOutput:
        traces = [wl.generate() for wl in self.workloads()]
        return self._output(figure5(traces, self.blocks))

    def run_traced_pass(self, spans) -> PassOutput:
        traces = []
        for wl in self.workloads():
            with spans.span("workloads.generate") as sp:
                trace = wl.generate()
            sp["events"] = len(trace)
            with spans.span("trace.columns"):
                trace.columns()
            traces.append(trace)
        panels, tables = [], []
        for trace in traces:
            with spans.span("engine.precompute"):
                pre = SharedPrecompute(trace)
                vectorized = (pre.resolve_cell("classify", "dubois")
                              == "vectorized")
                if vectorized:
                    pre.kernel_context()
            layer = "kernels" if vectorized else "classify"
            breakdowns = []
            for bb in self.blocks:
                with spans.span(f"{layer}.cell") as sp:
                    breakdowns.append(pre.run_cell(("classify", bb,
                                                    "dubois")))
                sp["refs"] = breakdowns[-1].data_refs
            sweep = SweepResult(trace_name=trace.name or "<anonymous>",
                                block_sizes=self.blocks,
                                breakdowns=tuple(breakdowns))
            with spans.span("analysis.invariants"):
                if list(self.blocks) == sorted(self.blocks):
                    for violation in check_block_size_monotonicity(sweep):
                        warnings.warn(violation)
            with spans.span("analysis.render"):
                panels.append(Fig5Panel(sweep))
                tables.append(panels[-1].format())
        return PassOutput(self._cells(panels), render(tables))

    def oracle(self) -> PassOutput:
        traces = [wl.generate() for wl in self.workloads()]
        return self._output(figure5(
            traces, self.blocks,
            options=ExecutionOptions(kernel="interpreted")))

    def telemetry_overhead(self, telemetry_dir: str) -> float:
        """``figure5`` with telemetry on against off: median ratio - 1.

        Five pairs of calls, alternating which runs first, over traces
        generated once up front.
        """
        traces = [wl.generate() for wl in self.workloads()]
        options = ExecutionOptions(telemetry_dir=telemetry_dir)
        on: List[float] = []
        off: List[float] = []
        for i in range(5):
            for telemetry in ((False, True) if i % 2 == 0
                              else (True, False)):
                start = time.perf_counter()
                figure5(traces, self.blocks,
                        options=options if telemetry else None)
                (on if telemetry else off).append(
                    time.perf_counter() - start)
        return statistics.median(on) / statistics.median(off) - 1.0


class FiniteJ2:
    """``repro simulate --capacity-blocks C --ways 4 --jobs 2``, per C."""

    name = "finite-j2"
    warm = True
    jobs = 2
    block = 64
    ways = 4

    trace_name = FINITE_TRACE

    def __init__(self, seed: int,
                 capacities: Sequence[int] = FINITE_CAPACITIES):
        self.seed = seed
        self.capacities = tuple(capacities)
        self.cache_dir: Optional[str] = None
        #: (capacity, engine, cell) of the latest traced pass, read after
        #: the pass for each cell's shard plan.
        self.last_engines: List = []

    def cache_workloads(self) -> List:
        return [seeded_workload(self.trace_name, self.seed)]

    def cell(self, capacity: int):
        return ("finite", self.block, finite_spec(capacity, self.ways))

    def kernel_modes(self, calls) -> Dict[str, str]:
        """The engine's resolution for the finite cells, which run in
        worker processes where :func:`kernel_calls` does not see them."""
        return {"finite": resolve_kernel("auto", "finite",
                                         self.cell(self.capacities[0])[2])}

    def _load(self):
        (wl,) = self.cache_workloads()
        return WorkloadTraceCache(self.cache_dir, memory=False).get(wl)

    def _engine(self, trace) -> SweepEngine:
        # As the CLI builds it: default ExecutionOptions, --jobs 2.
        return SweepEngine(trace, jobs=self.jobs,
                           **ExecutionOptions().engine_kwargs())

    def run_pass(self) -> PassOutput:
        cells, lines = {}, []
        for capacity in self.capacities:
            trace = self._load()
            cell = self.cell(capacity)
            (result,) = self._engine(trace).run_grid([cell])
            lines.append(result.describe())
            cells[f"{trace.name}/B{self.block}/{cell[2]}"] = result
        return PassOutput(cells, "".join(f"{line}\n" for line in lines))

    def run_traced_pass(self, spans) -> PassOutput:
        (wl,) = self.cache_workloads()
        cells, lines, engines = {}, [], []
        for capacity in self.capacities:
            with spans.span("trace.cache_open"):
                cache = WorkloadTraceCache(self.cache_dir, memory=False)
            trace = cached_trace(spans, cache, wl)
            cell = self.cell(capacity)
            engine = self._engine(trace)
            with spans.span("engine.precompute"):
                engine.precompute
            with spans.span("runtime.grid"):
                (result,) = engine.run_grid([cell])
            with spans.span("analysis.render"):
                lines.append(result.describe())
            engines.append((capacity, engine, cell))
            cells[f"{trace.name}/B{self.block}/{cell[2]}"] = result
        self.last_engines = engines
        return PassOutput(cells, "".join(f"{line}\n" for line in lines))

    def oracle(self) -> PassOutput:
        trace = self._load()
        cells, lines = {}, []
        for capacity in self.capacities:
            cell = self.cell(capacity)
            (result,) = SweepEngine(trace, kernel="interpreted").run_grid(
                [cell])
            lines.append(result.describe())
            cells[f"{trace.name}/B{self.block}/{cell[2]}"] = result
        return PassOutput(cells, "".join(f"{line}\n" for line in lines))

    def serial_cells(self) -> Dict[int, tuple]:
        """Each capacity's cell, run serially in-process.

        Returns ``{capacity: (seconds, result)}``.
        """
        pre = SharedPrecompute(self._load(), kernel="interpreted")
        out = {}
        for capacity in self.capacities:
            spec = self.cell(capacity)[2]
            start = time.perf_counter()
            result = pre.run_finite(spec, self.block)
            out[capacity] = (time.perf_counter() - start, result)
        return out

    def shard_balance(self) -> float:
        """Largest shard's rows over the mean, worst over the capacities
        of the latest traced pass (read from each cell's ``ShardPlan``)."""
        worst = 0.0
        for _, engine, cell in self.last_engines:
            plan = engine.precompute.shard_plan(
                BlockMap(cell[1]), self.jobs, dim=partition_dim_for(cell))
            mean = sum(plan.shard_events) / len(plan.shard_events)
            worst = max(worst, plan.max_shard_events / mean)
        return worst


WORKLOADS = {cls.name: cls for cls in (Fig6Warm, Fig5Cold, FiniteJ2)}


def make(name: str, seed: int):
    """The named workload at ``seed`` with the benchmark's configuration."""
    return WORKLOADS[name](seed)
