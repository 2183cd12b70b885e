"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-warm --seed 0 --seconds 25 \\
        --trace 0

One run sets up (``import repro.cli`` in fresh interpreters, plus filling
the trace cache for warm workloads), computes or loads the oracle digests,
runs one untimed warm-up pass and then runs passes back to back (a closed
loop with one client) for ``--seconds`` seconds, at least three of them.
The warm-up and the timed passes run in a forked child, so that its
resource usage covers only them and the workers they start.  Every pass
is checked against the oracle.  The timed end-to-end metrics
are scaled by :func:`reference`, a fixed computation timed around each
pass and each set-up, to cancel the host's drifting speed (see
``perfbench/README.md``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
layer table of one traced pass, whose self times plus
``bench.unattributed_s`` add up to that pass's wall time.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every cell matched
the oracle, 1 when one did not, and 2 when the benchmark cannot run (no
``src/repro`` next to it).

Everything the benchmark writes stays under ``perfbench/.work``: the
trace cache and telemetry of a run (removed when it ends), plus the
run's stamped result and, for ``--trace 1``, its spans.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)
if not os.path.isdir(os.path.join(SRC, "repro")):
    print(f"error: {SRC}/repro not found; run from the root of a checkout "
          f"of the repository", file=sys.stderr)
    raise SystemExit(2)

import oracle  # noqa: E402
import passes  # noqa: E402
from spans import Spans  # noqa: E402

WORKLOAD_NAMES = tuple(passes.WORKLOADS)
#: Timed set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Runs of :func:`reference` timed between two set-ups.
SETUP_REFERENCE_REPEATS = 2
#: Fewest timed passes per run, however long a pass takes.
MIN_PASSES = 3
#: Nominal seconds of :func:`reference`: timed end-to-end metrics are
#: scaled to a host on which it takes this long.
REFERENCE_S = 0.1
#: Share of a pass's time spent timing :func:`reference` after it.
REFERENCE_SHARE = 0.05

END_TO_END = {
    "wall_s": "s",
    "refs_per_s": "refs/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Layers of the traced passes, named after the ``repro`` subpackages.
LAYERS = ("workloads", "trace", "engine", "kernels", "classify",
          "protocols", "runtime", "analysis")

PER_LAYER = {
    "cli.import_s": "s",
    "workloads.generate_s": "s",
    "workloads.events_per_s": "events/s",
    "trace.columns_s": "s",
    "trace.cache_get_s": "s",
    "trace.decode_s": "s",
    "trace.cache_hit_ratio": "ratio",
    "engine.precompute_s": "s",
    "kernels.cell_s": "s",
    "kernels.refs_per_s": "refs/s",
    **{f"protocols.cell_s.{p}": "s" for p in passes.ALL_PROTOCOLS},
    "protocols.cell_p50_s": "s",
    "protocols.cell_p90_s": "s",
    "protocols.cell_samples": "count",
    **{f"protocols.finite_cell_s.c{c}": "s"
       for c in passes.FINITE_CAPACITIES},
    "runtime.grid_s": "s",
    "runtime.fanout_efficiency": "ratio",
    "runtime.shard_balance": "ratio",
    "analysis.render_s": "s",
    "obs.telemetry_overhead_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_s": "s",
    "bench.traced_pass_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "failed_frac": "ratio",
}

#: Set-up, run in a fresh interpreter: ``import repro.cli``, then (warm
#: workloads) fill the trace cache directory given as the third argument.
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
import repro.cli
import_s = time.perf_counter() - start
fill_s = 0.0
if sys.argv[3]:
    import passes
    wl = passes.make(sys.argv[1], int(sys.argv[2]))
    start = time.perf_counter()
    passes.fill_cache(wl, sys.argv[3])
    fill_s = time.perf_counter() - start
print(json.dumps({"import_s": import_s, "fill_s": fill_s}))
"""


def run_setup(wl, cache_dir: str) -> Dict:
    """Time the set-up ``SETUP_REPS`` times; the last fill stays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))

    def once(directory: str) -> Dict:
        if directory:
            shutil.rmtree(directory, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, wl.name, str(wl.seed),
             directory], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    once("")  # untimed: compiles bytecode and warms the file cache
    imports, raw, scaled = [], [], []
    before = reference(SETUP_REFERENCE_REPEATS)
    for _ in range(SETUP_REPS):
        rep = once(cache_dir if wl.warm else "")
        after = reference(SETUP_REFERENCE_REPEATS)
        imports.append(rep["import_s"])
        raw.append(rep["import_s"] + rep["fill_s"])
        scaled.append(raw[-1] * REFERENCE_S / ((before + after) / 2))
        before = after
    return {"import_s": statistics.median(imports),
            "setup_s": statistics.median(scaled),
            "raw_setup_s": statistics.median(raw)}


def cpu_seconds() -> float:
    """User+system CPU of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark, where Linux allows it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> Dict[str, float]:
    """Peak RSS of this process (since the last reset) and of its
    largest reaped child, in MB.

    Called in the child of :func:`in_child`, the second figure covers
    only the workers its passes started.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self": own / 1024.0, "largest_child": child / 1024.0}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Cells attempted and failed against the oracle, over a run."""

    def __init__(self, expected: Dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, output) -> None:
        attempted, failed, problems = oracle.check(output, self.expected)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def error(self, exc: BaseException) -> None:
        """A pass that raised fails every cell it would have produced."""
        count = len(self.expected["cells"]) + 1
        self.attempted += count
        self.failed += count
        self.problems.append(f"pass raised {exc!r}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def timed(fn: Callable):
    """``(output, wall seconds, CPU seconds)`` of one call."""
    cpu = cpu_seconds()
    start = time.perf_counter()
    output = fn()
    return output, time.perf_counter() - start, cpu_seconds() - cpu


def reference(repeats: int = 1) -> float:
    """Seconds a fixed pure-Python loop takes right now (the mean of
    ``repeats`` runs).

    It uses no ``repro`` code, so no change to the program moves it; only
    the host's speed does.  It allocates only ints, no container objects,
    so the cyclic garbage collector never runs inside it and the heap the
    program leaves behind does not move it either.  Integer arithmetic
    with no working set was chosen over a sort of 120k tuples because it
    tracked every workload's pass times more closely (see
    ``perfbench/README.md``).
    """
    start = time.perf_counter()
    for _ in range(repeats):
        total = 0
        for i in range(1_000_000):
            total += (i * i) % 7
    return (time.perf_counter() - start) / repeats


def reference_repeats(pass_wall: float) -> int:
    """Reference runs after a pass: about ``REFERENCE_SHARE`` of its time."""
    return max(1, round(REFERENCE_SHARE * pass_wall / REFERENCE_S))


def untraced_passes(wl, seconds: float, tally: Tally,
                    warm_wall: float) -> Dict[str, list]:
    """Timed passes, each between two timings of :func:`reference`.

    Besides the raw times, each pass's wall and CPU seconds are scaled to
    a host on which :func:`reference` takes ``REFERENCE_S``: the host this
    benchmark runs on changes speed by about 20% over minutes, whatever
    the run length, and the scaled times cancel most of that drift.
    """
    runs: Dict[str, list] = {k: [] for k in ("wall", "cpu", "rate",
                                             "raw_wall", "raw_cpu",
                                             "reference")}
    before = reference(reference_repeats(warm_wall))
    start = time.perf_counter()
    while (len(runs["wall"]) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        try:
            output, wall, cpu = timed(wl.run_pass)
        except Exception as exc:
            tally.error(exc)
            break
        after = reference(reference_repeats(wall))
        tally.check(output)
        ref = (before + after) / 2
        scale = REFERENCE_S / ref
        before = after
        runs["raw_wall"].append(wall)
        runs["raw_cpu"].append(cpu)
        runs["reference"].append(ref)
        runs["wall"].append(wall * scale)
        runs["cpu"].append(cpu * scale)
        runs["rate"].append(output.refs / (wall * scale))
    return runs


def traced_passes(wl, seconds: float, tally: Tally, spans):
    """Alternate untraced and traced passes; returns the untraced walls
    and the traced pass ids."""
    walls: List[float] = []
    traced: List[int] = []
    start = time.perf_counter()
    pass_id = 0
    while (not walls or not traced
           or time.perf_counter() - start < seconds):
        try:
            if pass_id % 2 == 0:
                output, wall, _ = timed(wl.run_pass)
                walls.append(wall)
            else:
                with spans.traced_pass(pass_id):
                    output = wl.run_traced_pass(spans)
                traced.append(pass_id)
        except Exception as exc:
            tally.error(exc)
            break
        tally.check(output)
        pass_id += 1
    return walls, traced


def median_pass(spans, traced: List[int]) -> int:
    """The traced pass with the median wall time (the lower of two)."""
    return sorted(traced, key=lambda p: spans.passes[p])[(len(traced) - 1)
                                                         // 2]


def layer_metrics(wl, spans, walls: List[float], traced: List[int],
                  table: Dict[str, float], extras: Dict) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    ``<layer>.*_s`` values are seconds per pass (the median over traced
    passes); a layer that does not run on the workload reads 0.
    """
    def per_pass(name: str) -> float:
        return statistics.median(spans.total(name, p) for p in traced)

    def rate(name: str, key: str) -> float:
        recs = spans.matching(name, traced)
        busy = sum(r["end"] - r["start"] for r in recs)
        return sum(r[key] for r in recs) / busy if busy else 0.0

    m: Dict[str, float] = {}
    m["workloads.generate_s"] = per_pass("workloads.generate")
    m["workloads.events_per_s"] = rate("workloads.generate", "events")
    m["trace.columns_s"] = per_pass("trace.columns")
    m["trace.cache_get_s"] = per_pass("trace.cache_get")
    m["trace.decode_s"] = per_pass("trace.decode")
    lookups = spans.matching("trace.cache_get", traced)
    m["trace.cache_hit_ratio"] = (sum(r["hit"] for r in lookups)
                                  / len(lookups) if lookups else 0.0)
    m["engine.precompute_s"] = per_pass("engine.precompute")
    m["kernels.cell_s"] = per_pass("kernels.cell")
    m["kernels.refs_per_s"] = rate("kernels.cell", "refs")
    for proto in passes.ALL_PROTOCOLS:
        m[f"protocols.cell_s.{proto}"] = per_pass(f"protocols.cell.{proto}")
    cells = [r["end"] - r["start"]
             for r in spans.matching("protocols.cell", traced)]
    m["protocols.cell_p50_s"] = percentile(cells, 0.5)
    m["protocols.cell_p90_s"] = percentile(cells, 0.9)
    m["protocols.cell_samples"] = len(cells)
    serial = extras.get("finite_cell_s", {})
    for capacity in passes.FINITE_CAPACITIES:
        m[f"protocols.finite_cell_s.c{capacity}"] = serial.get(capacity, 0.0)
    m["runtime.grid_s"] = per_pass("runtime.grid")
    m["runtime.fanout_efficiency"] = (
        sum(serial.values()) / (wl.jobs * m["runtime.grid_s"])
        if serial and m["runtime.grid_s"] else 0.0)
    m["runtime.shard_balance"] = extras.get("shard_balance", 0.0)
    m["analysis.render_s"] = per_pass("analysis.render")
    m["obs.telemetry_overhead_frac"] = extras.get("telemetry_overhead", 0.0)
    traced_walls = [spans.passes[p] for p in traced]
    m["bench.trace_overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(walls) - 1.0)
    unknown = set(table) - set(LAYERS) - {"unattributed"}
    if unknown:
        raise RuntimeError(f"spans outside the known layers: {unknown}")
    m["bench.unattributed_s"] = table["unattributed"]
    m["bench.traced_pass_s"] = spans.passes[median_pass(spans, traced)]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = table.get(layer, 0.0)
    return m


def traced_extras(wl, tally: Tally, run_dir: str) -> Dict:
    """Per-layer measurements made after the traced passes."""
    extras: Dict = {}
    if hasattr(wl, "telemetry_overhead"):
        telemetry_dir = os.path.join(run_dir, "telemetry")
        extras["telemetry_overhead"] = wl.telemetry_overhead(telemetry_dir)
    if hasattr(wl, "serial_cells"):
        serial = wl.serial_cells()
        extras["finite_cell_s"] = {c: s for c, (s, _) in serial.items()}
        for capacity, (_, result) in serial.items():
            cell = f"{wl.trace_name}/B{wl.block}/{wl.cell(capacity)[2]}"
            tally.attempted += 1
            if oracle.digest_of(result) != tally.expected["cells"][cell]:
                tally.failed += 1
                tally.problems.append(f"serial cell {cell} differs from "
                                      f"the oracle")
        extras["shard_balance"] = wl.shard_balance()
    return extras


def stamp(wl, args, pass_count: int, source: str,
          kernel_modes: Dict[str, str]) -> Dict:
    """Host and mode of a result: numbers with different stamps must not
    be compared."""
    import numpy

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cores = os.cpu_count()
    return {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
            "run_seconds": args.seconds, "passes": pass_count,
            "host": platform.node(), "usable_cores": cores,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_modes": kernel_modes, "oracle": source,
            "load": "closed loop, 1 client, passes back to back"}


def in_child(fn: Callable[[], Dict]) -> Dict:
    """``fn()``, run in a forked child that sends its result back.

    The child has reaped none of the set-up interpreters, so its
    ``RUSAGE_CHILDREN`` covers only the workers ``fn`` starts.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def child() -> None:
        try:
            send.send(("ok", fn()))
        except BaseException:
            send.send(("error", traceback.format_exc()))
        finally:
            stop_children()

    proc = context.Process(target=child, name="perfbench-passes")
    proc.start()
    send.close()
    try:
        status, value = receive.recv()
    except EOFError:
        status, value = "error", "the measuring process sent no result"
    finally:
        proc.join()
    if status != "ok":
        raise RuntimeError(f"{value}\n(measuring process exit code "
                           f"{proc.exitcode})")
    return value


def measure(wl, args, run_dir: str) -> Dict:
    wl.cache_dir = os.path.join(run_dir, "cache")
    setup = run_setup(wl, wl.cache_dir)
    expected, source = oracle.expected_digests(wl)
    return in_child(lambda: measure_passes(wl, args, run_dir, setup,
                                           expected, source))


def measure_passes(wl, args, run_dir: str, setup: Dict, expected: Dict,
                   source: str) -> Dict:
    """The warm-up pass, then the timed (or traced) passes."""
    tally = Tally(expected)
    start = time.perf_counter()
    with passes.kernel_calls() as calls:
        try:
            tally.check(wl.run_pass())  # warm-up, untimed
        except Exception as exc:
            tally.error(exc)
    warm_wall = time.perf_counter() - start
    kernel_modes = wl.kernel_modes(calls)
    reset_peak_rss()
    out: Dict = {"tally": tally, "setup": setup}
    if args.trace:
        spans = Spans()
        walls, traced = traced_passes(wl, args.seconds, tally, spans)
        out["stamp"] = stamp(wl, args, len(walls) + len(traced), source,
                             kernel_modes)
        if traced and walls:
            out["table"] = spans.layer_table(median_pass(spans, traced))
            metrics = layer_metrics(wl, spans, walls, traced, out["table"],
                                    traced_extras(wl, tally, run_dir))
        else:
            metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics["cli.import_s"] = setup["import_s"]
        metrics["failed_frac"] = tally.failed_frac
        out["metrics"] = {name: metrics[name] for name in PER_LAYER}
        spans.dump(os.path.join(WORK, f"spans-{wl.name}-seed{wl.seed}.json"),
                   out["stamp"])
    else:
        runs = untraced_passes(wl, args.seconds, tally, warm_wall)
        rss = peak_rss_mb()
        out["stamp"] = stamp(wl, args, len(runs["wall"]), source,
                             kernel_modes)
        out["rss"] = rss
        out["passes"] = runs
        median = (lambda xs: statistics.median(xs) if xs else 0.0)
        out["metrics"] = {"wall_s": median(runs["wall"]),
                          "refs_per_s": median(runs["rate"]),
                          "cpu_s": median(runs["cpu"]),
                          "peak_rss_mb": max(rss.values()),
                          "setup_s": setup["setup_s"]}
    return out


def report(out: Dict) -> List[str]:
    """Human-readable lines: the stamp, each metric with its unit."""
    st = out["stamp"]
    tally = out["tally"]
    units = PER_LAYER if st["trace"] else END_TO_END
    lines = [f"perfbench {st['workload']} seed={st['seed']} "
             f"trace={st['trace']}",
             "stamp: " + json.dumps(st, sort_keys=True)]
    runs = {k: statistics.median(v) if v else 0.0
            for k, v in out.get("passes", {}).items()}
    for name, value in out["metrics"].items():
        note = ""
        if name == "wall_s":
            note = (f"  (median of {st['passes']} passes; unscaled "
                    f"{runs['raw_wall']:.4f} s, reference "
                    f"{runs['reference']:.4f} s against {REFERENCE_S} s)")
        elif name == "cpu_s":
            note = f"  (unscaled {runs['raw_cpu']:.4f} s)"
        elif name == "setup_s":
            note = f"  (unscaled {out['setup']['raw_setup_s']:.4f} s)"
        elif name == "peak_rss_mb":
            rss = out["rss"]
            note = (f"  (benchmark process {rss['self']:.1f} MB, largest "
                    f"worker {rss['largest_child']:.1f} MB)")
        lines.append(f"  {name:32s} {value:.6g} {units[name]}{note}")
    if not st["trace"]:
        lines.append(f"  {'failed_frac':32s} {tally.failed_frac:.6g} ratio"
                     f"  ({tally.failed} of {tally.attempted} cells)")
    if "table" in out:
        table = out["table"]
        lines.append("layer table (self seconds of the median traced pass):")
        for layer, seconds in table.items():
            lines.append(f"  {layer:14s} {seconds:10.4f} s")
        lines.append(f"  {'sum':14s} {sum(table.values()):10.4f} s = "
                     f"traced pass wall "
                     f"{out['metrics']['bench.traced_pass_s']:.4f} s")
    lines.extend(f"FAILED {p}" for p in tally.problems[:20])
    return lines


def stop_children() -> None:
    """Reap every child process; stop any still running."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark one workload of the repro simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = passes.make(args.workload, args.seed)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        out = measure(wl, args, run_dir)
    finally:
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)
    tally = out["tally"]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": {
                  name: {"value": value,
                         "unit": (PER_LAYER if args.trace
                                  else END_TO_END)[name]}
                  for name, value in out["metrics"].items()}}
    with open(os.path.join(WORK, f"result-{wl.name}-seed{wl.seed}-"
                                 f"trace{args.trace}.json"), "w") as fh:
        json.dump({"stamp": out["stamp"], **result,
                   "passes": out.get("passes"),
                   "problems": tally.problems}, fh, indent=1)
    for line in report(out):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
