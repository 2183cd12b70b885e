"""Command-line interface: ``python -m repro <command>`` or ``repro <command>``.

Commands
--------
classify    Classify a trace (file or named workload) at one block size.
compare     Run all three classifiers over one (trace, block size) cell.
sweep       Figure 5: classification vs block size for one workload.
simulate    Run one or all protocols over a workload at one block size.
table1      Reproduce Table 1 (three-way classifier comparison).
table2      Reproduce Table 2 (benchmark characteristics).
fig5        Reproduce Figure 5 for the whole small suite.
fig6        Reproduce Figure 6 (a and b) for the whole small suite.
validate    Run the data-race checker over a trace file or workload.
generate    Generate a workload trace and save it (.npz or .trc).
report      Render a recorded run's telemetry (see ``--telemetry``).
trace       Render a run's span tree and critical-path attribution.
diff        Compare two runs cell-by-cell and flag regressions.

Global flags: ``-v``/``-q`` adjust console log verbosity (repeatable);
``--telemetry DIR`` on the sweep-style commands records the whole command
as one run — spans, metrics and a queryable ``manifest.json`` — and shows
a live progress line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .obs import configure_logging

from .analysis.figures import Fig6Panel, figure5
from .analysis.sweep import sweep_block_sizes
from .analysis.tables import (
    build_table1,
    build_table2,
    format_table1,
    format_table2,
)
from .errors import (
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    EXIT_RESOURCE_EXHAUSTED,
    ReproError,
    ResourceExhaustedError,
    SweepInterrupted,
)
from .runtime.signals import graceful_shutdown
from .protocols.runner import (ALL_PROTOCOLS, protocol_names, run_protocol,
                               run_protocol_grid, run_protocols)
from .trace import io as trace_io
from .trace.cache import WorkloadTraceCache, default_cache_dir
from .trace.trace import Trace
from .trace.validate import check_races
from .workloads.registry import NAMED_CONFIGS, make_workload, suite


def _trace_cache(args) -> "WorkloadTraceCache | None":
    """The workload trace cache selected by ``--trace-cache``, if any.

    No in-memory memo: every command reads each trace once, and a memo
    would pin a suite command's traces all at once.
    """
    directory = getattr(args, "trace_cache", None)
    if directory is None:
        return None
    return WorkloadTraceCache(directory or None, memory=False,
                              max_bytes=getattr(args, "cache_max_bytes", None))


def _engine_options(args):
    """Build :class:`ExecutionOptions` from the resilience flags.

    Returns ``None`` when every flag is at its default, so commands run
    exactly as before unless resilience features are requested.
    """
    from .analysis.engine import ExecutionOptions
    from .runtime.retry import RetryPolicy

    retries = getattr(args, "retries", None)
    timeout = getattr(args, "timeout", None)
    resume = getattr(args, "resume", None)
    strict = getattr(args, "strict_invariants", False)
    shards = getattr(args, "shards", None)
    telemetry = getattr(args, "telemetry", None)
    kernel = getattr(args, "kernel", "auto")
    if (retries is None and timeout is None and resume is None
            and not strict and shards is None
            and telemetry is None and kernel == "auto"):
        return None
    retry = RetryPolicy.from_retries(retries) if retries is not None else None
    return ExecutionOptions(retry=retry, timeout=timeout,
                            checkpoint_dir=resume, strict_invariants=strict,
                            shards=shards,
                            telemetry_dir=telemetry, kernel=kernel)


def _load_trace(spec: str, cache: "WorkloadTraceCache | None" = None) -> Trace:
    """Resolve a trace argument: a named workload or a trace file path."""
    if spec in NAMED_CONFIGS:
        if cache is not None:
            return cache.get(spec)
        return make_workload(spec).generate()
    if spec.endswith(".npz"):
        return trace_io.load_npz(spec)
    if spec.endswith(".trc") or spec.endswith(".txt"):
        return trace_io.load_text(spec)
    raise ReproError(
        f"{spec!r} is neither a named workload ({sorted(NAMED_CONFIGS)}) "
        f"nor a .npz/.trc trace file")


def _suite_traces(args):
    """Generate (or load cached) the traces of ``args.suite``, one at a time."""
    cache = _trace_cache(args)
    for wl in suite(args.suite):
        yield cache.get(wl) if cache is not None else wl.generate()


def _cmd_classify(args) -> int:
    from .analysis.engine import ExecutionOptions, SweepEngine

    trace = _load_trace(args.trace, _trace_cache(args))
    options = _engine_options(args) or ExecutionOptions()
    engine = SweepEngine(trace, jobs=args.jobs, **options.engine_kwargs())
    (breakdown,) = engine.run_grid([("classify", args.block,
                                     args.classifier)])
    print(f"{trace.name} @ B={args.block}: {breakdown.describe()}")
    return 0


def _cmd_compare(args) -> int:
    from .analysis.engine import ExecutionOptions, SweepEngine

    trace = _load_trace(args.trace, _trace_cache(args))
    options = _engine_options(args) or ExecutionOptions()
    engine = SweepEngine(trace, jobs=args.jobs, **options.engine_kwargs())
    (cmp,) = engine.run_grid([("compare", args.block, None)])
    print(f"{trace.name} @ B={args.block}")
    print(f"  dubois    : {cmp.ours.describe()}")
    print(f"  eggers    : {cmp.eggers.describe()}")
    print(f"  torrellas : {cmp.torrellas.describe()}")
    return 0


def _cmd_sweep(args) -> int:
    trace = _load_trace(args.trace, _trace_cache(args))
    print(sweep_block_sizes(trace, jobs=args.jobs,
                            options=_engine_options(args)).format())
    return 0


def _cmd_simulate(args) -> int:
    if args.ways is not None and args.capacity_blocks is None:
        raise ReproError("--ways requires --capacity-blocks")
    trace = _load_trace(args.trace, _trace_cache(args))
    if args.capacity_blocks is not None:
        if args.protocol not in (None, "OTF"):
            raise ReproError(
                "finite caches simulate the OTF protocol; drop "
                "--protocol or pass --protocol OTF")
        from .analysis.engine import ExecutionOptions, SweepEngine
        from .protocols.finite import finite_spec

        options = _engine_options(args) or ExecutionOptions()
        engine = SweepEngine(trace, jobs=args.jobs,
                             **options.engine_kwargs())
        cell = ("finite", args.block,
                finite_spec(args.capacity_blocks, args.ways))
        (result,) = engine.run_grid([cell])
        print(result.describe())
        return 0
    names = [args.protocol] if args.protocol else None
    results = run_protocols(trace, args.block, names, jobs=args.jobs,
                            options=_engine_options(args))
    for name, result in results.items():
        print(result.describe())
    return 0


def _cmd_table1(args) -> int:
    cache = _trace_cache(args)
    traces = (_load_trace(n, cache)
              for n in args.benchmarks or ["LU64", "MP3D1000"])
    comparisons = build_table1(traces, block_sizes=(32, 1024))
    print(format_table1(comparisons))
    return 0


def _cmd_table2(args) -> int:
    print(format_table2(build_table2(_suite_traces(args))))
    return 0


def _cmd_fig5(args) -> int:
    for panel in figure5(_suite_traces(args), jobs=args.jobs,
                         options=_engine_options(args)).values():
        print(panel.format())
        print()
    return 0


def _cmd_fig6(args) -> int:
    options = _engine_options(args)

    def panels(trace: Trace) -> list:
        """The trace's panel at each block size, from one grid planned
        at the largest."""
        grid = run_protocol_grid(trace, args.blocks, jobs=args.jobs,
                                 options=options)
        return [Fig6Panel(trace_name=trace.name, block_bytes=block,
                          results={name: grid[(block, name)]
                                   for name in ALL_PROTOCOLS})
                for block in args.blocks]

    # Computed trace by trace (map drops each trace once its panels are
    # built), printed block by block.
    for block_panels in zip(*map(panels, _suite_traces(args))):
        for panel in block_panels:
            print(panel.format_table())
            print()
    return 0


def _cmd_attribute(args) -> int:
    from .analysis.attribution import attribute_misses

    trace = _load_trace(args.trace, _trace_cache(args))
    result = attribute_misses(trace, args.block)
    print(result.format())
    top = result.top_false_sharers()
    if top:
        print()
        print("Top false-sharing regions:")
        for name, count in top:
            print(f"  {name}: {count} useless misses")
    return 0


def _cmd_traffic(args) -> int:
    from .protocols.traffic import estimate_traffic

    trace = _load_trace(args.trace, _trace_cache(args))
    names = [args.protocol] if args.protocol else None
    print(f"{'proto':6s} {'miss%':>7s} {'fetch B':>10s} {'word B':>9s} "
          f"{'ctrl B':>9s} {'bytes/ref':>10s}")
    for name, result in run_protocols(trace, args.block, names).items():
        t = estimate_traffic(result)
        print(f"{name:6s} {result.miss_rate:7.2f} {t.fetch_bytes:>10d} "
              f"{t.word_write_bytes:>9d} {t.control_bytes:>9d} "
              f"{t.per_reference(result.breakdown.data_refs):>10.1f}")
    return 0


def _cmd_prefetch(args) -> int:
    from .analysis.prefetch import prefetch_analysis

    trace = _load_trace(args.trace, _trace_cache(args))
    print(prefetch_analysis(trace).format())
    return 0


def _cmd_validate(args) -> int:
    trace = _load_trace(args.trace, _trace_cache(args))
    report = check_races(trace)
    print(f"{trace.name}: {report.describe()}")
    return 0 if report.is_race_free else 1


def _cmd_generate(args) -> int:
    trace = make_workload(args.workload).generate()
    if args.out.endswith(".npz"):
        trace_io.save_npz(trace, args.out)
    else:
        trace_io.save_text(trace, args.out)
    print(f"wrote {len(trace)} events to {args.out}")
    return 0


def _cmd_report(args) -> int:
    from .obs import render_report

    render_report(args.dir, top=args.top, stream=sys.stdout,
                  as_json=args.json)
    return 0


def _cmd_trace(args) -> int:
    from .obs import render_trace, trace_summary

    if args.json:
        import json as _json

        print(_json.dumps(trace_summary(args.run, top=args.top),
                          indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_trace(args.run, top=args.top))
    return 0


def _cmd_diff(args) -> int:
    from .obs import diff_runs, render_diff

    diff = diff_runs(args.run_a, args.run_b, threshold=args.threshold,
                     min_seconds=args.min_seconds)
    if args.json:
        import json as _json

        print(_json.dumps(diff, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_diff(diff))
    if args.fail_on_regress and diff["regressions"]:
        return 1
    return 0


def _size(text: str) -> int:
    """argparse type for human byte sizes (``512M``, ``1.5G``, ``4096``)."""
    from .runtime.resources import parse_size

    try:
        return parse_size(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_trace_cache_arg(p: argparse.ArgumentParser) -> None:
    """``--trace-cache``, read by :func:`_trace_cache`."""
    p.add_argument("--trace-cache", nargs="?", const="", default=None,
                   metavar="DIR",
                   help="cache generated workload traces as .npz under DIR "
                        f"(no DIR: {default_cache_dir()})")


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--trace-cache`` / resilience flags shared by the
    sweep-style commands."""
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the experiment grid "
                        "(1 = serial, 0 = one per available CPU)")
    _add_trace_cache_arg(p)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-cell stall timeout: a worker whose progress "
                        "stops for this long is killed and its cell "
                        "retried (default: none)")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="retries per failed/hung grid cell before the "
                        "serial in-process fallback (default: 2)")
    p.add_argument("--resume", nargs="?", const="", default=None,
                   metavar="DIR",
                   help="journal completed grid cells under DIR and resume "
                        "a killed sweep, re-running only incomplete cells "
                        "(no DIR: the default checkpoint directory)")
    p.add_argument("--strict-invariants", action="store_true",
                   help="fail on a post-cell invariant violation instead "
                        "of warning")
    p.add_argument("--shards", type=int, default=None, metavar="P",
                   help="cut each grid's batch plans (one for its "
                        "vectorized protocol/classifier/compare cells, "
                        "by block, and one per finite cache, by cache "
                        "set) into P ranges of balanced row counts, one "
                        "task each; interpreted cells always run whole "
                        "(1 = one range; 0 = --jobs, which is also the "
                        "default)")
    p.add_argument("--cache-max-bytes", type=_size, default=None,
                   metavar="SIZE",
                   help="disk quota for the --trace-cache directory; "
                        "least-recently-used entries are evicted after "
                        "each write to stay under it (default: unbounded)")
    p.add_argument("--telemetry", default=None, metavar="DIR",
                   help="record run telemetry under DIR: a per-run "
                        "subdirectory with an events.jsonl span/metric "
                        "stream and a queryable manifest.json, plus a "
                        "live progress line on stderr; render it later "
                        "with 'repro report DIR'")
    p.add_argument("--kernel", choices=("auto", "vectorized", "interpreted"),
                   default="auto",
                   help="execution path for each cell: vectorized NumPy "
                        "kernels where available (the classifiers, "
                        "all seven infinite-cache protocols and finite "
                        "caches of more than one set; bit-identical to "
                        "the streaming oracles), the "
                        "interpreted per-event oracles everywhere, or auto "
                        "(the default; the same path as vectorized).  "
                        "Checkpoint journals record the "
                        "choice, so --resume never mixes paths")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dubois et al. (ISCA 1993) useless-miss reproduction")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more console logging (-v: info, -vv: debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less console logging (errors only; also "
                             "hides the --telemetry progress line)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a trace at one block size")
    p.add_argument("trace", help="named workload or trace file")
    p.add_argument("--block", type=int, default=64, help="block size in bytes")
    p.add_argument("--classifier", default="dubois",
                   choices=("dubois", "eggers", "torrellas"),
                   help="classification scheme (default: dubois)")
    _add_engine_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compare", help="run all three classifiers over one "
                                       "(trace, block size) cell")
    p.add_argument("trace", help="named workload or trace file")
    p.add_argument("--block", type=int, default=64, help="block size in bytes")
    _add_engine_args(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="Figure 5 sweep for one trace")
    p.add_argument("trace")
    _add_engine_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="run protocol simulations")
    p.add_argument("trace")
    p.add_argument("--block", type=int, default=64)
    p.add_argument("--protocol", choices=protocol_names(),
                   help="one protocol (default: all)")
    p.add_argument("--capacity-blocks", type=int, default=None, metavar="N",
                   help="simulate OTF with finite per-processor caches of "
                        "N blocks (paper section 8.0 replacement misses); "
                        "multi-set geometries run in ranges of cache sets "
                        "under --jobs/--shards")
    p.add_argument("--ways", type=int, default=None, metavar="W",
                   help="cache associativity: W-way sets, N/W sets total "
                        "(requires --capacity-blocks; default: fully "
                        "associative)")
    _add_engine_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table1", help="reproduce Table 1")
    p.add_argument("--benchmarks", nargs="*", metavar="NAME")
    _add_trace_cache_arg(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="reproduce Table 2")
    p.add_argument("--suite", default="small",
                   choices=("small", "large", "paper-large"))
    _add_trace_cache_arg(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("fig5", help="reproduce Figure 5")
    p.add_argument("--suite", default="small",
                   choices=("small", "large", "paper-large"))
    _add_engine_args(p)
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser("fig6", help="reproduce Figure 6")
    p.add_argument("--suite", default="small",
                   choices=("small", "large", "paper-large"))
    p.add_argument("--blocks", nargs="*", type=int, default=[64, 1024])
    _add_engine_args(p)
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("attribute",
                       help="attribute misses to data structures")
    p.add_argument("trace")
    p.add_argument("--block", type=int, default=64)
    _add_trace_cache_arg(p)
    p.set_defaults(func=_cmd_attribute)

    p = sub.add_parser("traffic", help="estimate interconnect traffic")
    p.add_argument("trace")
    p.add_argument("--block", type=int, default=64)
    p.add_argument("--protocol", choices=protocol_names())
    _add_trace_cache_arg(p)
    p.set_defaults(func=_cmd_traffic)

    p = sub.add_parser("prefetch",
                       help="prefetching miss-rate floors (PC/CFS removal)")
    p.add_argument("trace")
    _add_trace_cache_arg(p)
    p.set_defaults(func=_cmd_prefetch)

    p = sub.add_parser("validate", help="check a trace for data races")
    p.add_argument("trace")
    _add_trace_cache_arg(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate", help="generate and save a workload trace")
    p.add_argument("workload", choices=sorted(NAMED_CONFIGS))
    p.add_argument("out", help="output path (.npz or .trc)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("report",
                       help="render a recorded run's telemetry (manifest "
                            "per-cell table + slowest spans)")
    p.add_argument("dir", help="a --telemetry directory or one run "
                               "directory inside it")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="how many slowest spans to list (default: 10)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as one machine-readable JSON "
                        "object instead of tables")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("trace",
                       help="render a run's causal span tree and its "
                            "critical path (who the sweep actually "
                            "waited on, including idle gaps)")
    p.add_argument("run", help="a run directory (or a --telemetry "
                               "directory holding exactly one run)")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="how many critical-path contributors to rank "
                        "(default: 10)")
    p.add_argument("--json", action="store_true",
                   help="emit the tree and critical path as JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("diff",
                       help="compare two runs cell-by-cell (duration, "
                            "events/s, attempts, kernel) and flag "
                            "deltas past a threshold")
    p.add_argument("run_a", help="baseline: a run directory or a "
                                 "'repro report --json' output file")
    p.add_argument("run_b", help="candidate run, same forms as run_a")
    p.add_argument("--threshold", type=float, default=0.2, metavar="FRAC",
                   help="relative duration change that flags a cell "
                        "(default: 0.2 = 20%%)")
    p.add_argument("--min-seconds", type=float, default=0.005,
                   metavar="SECONDS",
                   help="never flag cells faster than this in both runs "
                        "— their deltas are noise (default: 0.005)")
    p.add_argument("--json", action="store_true",
                   help="emit the comparison as JSON")
    p.add_argument("--fail-on-regress", action="store_true",
                   help="exit 1 when any cell regressed past the "
                        "threshold")
    p.set_defaults(func=_cmd_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    verbosity = args.verbose - args.quiet
    configure_logging(verbosity)
    telemetry_dir = getattr(args, "telemetry", None)
    try:
        # Install the two-phase SIGINT/SIGTERM handler for the whole
        # command: the first signal drains in-flight cells and exits
        # resumable (EXIT_INTERRUPTED); a second forces teardown.
        with graceful_shutdown():
            if telemetry_dir is not None:
                # One run for the whole command: trace loading (cache
                # spans) and every engine the command builds share the
                # stream.
                from .obs import RunTelemetry

                run_argv = list(argv) if argv is not None else sys.argv[1:]
                with RunTelemetry(telemetry_dir, argv=run_argv,
                                  config={"command": args.command},
                                  progress=verbosity >= 0):
                    return args.func(args)
            return args.func(args)
    except SweepInterrupted as exc:
        if not hasattr(args, "resume"):
            hint = ""  # the command takes no --resume
        elif args.resume is None:
            hint = " -- add --resume to make interrupted sweeps restartable"
        else:
            hint = " -- re-run with the same --resume to continue"
        print(f"interrupted: {exc}{hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        # A Ctrl-C outside the engine (argument parsing, trace load,
        # report rendering) has no partial state to report but is still
        # a clean, resumable interruption.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ResourceExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_EXHAUSTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def entry_point() -> int:
    """The ``repro`` console script and ``python -m repro``.

    Runs :func:`main`.  A SIGINT that lands after main's shutdown scope
    has closed meets Python's default handler again and raises here; it
    too exits :data:`~repro.errors.EXIT_INTERRUPTED` with the
    ``interrupted`` line, instead of killing the finished process by the
    signal.
    """
    try:
        return main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(entry_point())
