"""Render a finished run's telemetry into a human-readable report.

Backs the ``repro report`` subcommand: given a ``--telemetry`` directory
(or one run directory inside it), print for each run

* a header with run id, outcome, wall duration and counters,
* a per-cell table (status, attempts, shards, duration, rows, events/s,
  predicted-vs-observed footprint ratio, result digest),
* the top-N slowest spans from ``events.jsonl``.

Everything is computed over the manifest and event stream — the same
artifacts the tests validate — so the report doubles as a smoke test
that a run's telemetry is complete and well-formed.  ``--json`` emits
the identical content as one machine-readable object
(:func:`report_summary`), which ``repro trace`` and ``repro diff``
share.  Malformed or half-written run directories are skipped with a
logged warning instead of aborting the whole report.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, TextIO

from ..errors import ReproError
from .logsetup import library_logger
from .manifest import (EVENTS_NAME, find_runs, load_manifest,
                       validate_manifest)
from .schema import iter_records


def _fmt_cell(cell) -> str:
    return "/".join(str(part) for part in cell)


def _fmt_num(value, fmt: str = "{:.2f}", missing: str = "-") -> str:
    if value is None:
        return missing
    return fmt.format(value)


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, col in enumerate(row):
            widths[i] = max(widths[i], len(col))
    def line(cols):
        return "  ".join(col.ljust(widths[i])
                         for i, col in enumerate(cols)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def slowest_spans(events_path: str, top: int = 10) -> List[dict]:
    """The ``top`` longest spans of an ``events.jsonl``, slowest first."""
    spans: List[dict] = []
    if not os.path.exists(events_path):
        return spans
    for _, record in iter_records(events_path):
        if record.get("kind") == "span":
            spans.append(record)
    spans.sort(key=lambda r: -float(r.get("dur_s", 0.0)))
    return spans[:top]


def _span_row(record: dict) -> dict:
    attrs = record.get("attrs", {})
    what = attrs.get("cell") or attrs.get("trace") or attrs.get("key")
    return {
        "name": record.get("name"),
        "dur_s": float(record.get("dur_s", 0.0)),
        "status": record.get("status"),
        "target": (_fmt_cell(what) if isinstance(what, (list, tuple))
                   else str(what) if what is not None else None),
    }


def run_summary(run_dir: str, *, top: int = 10,
                strict: bool = True) -> Optional[dict]:
    """One run's report as data: manifest fields plus slowest spans.

    Returns ``None`` (after a logged warning) for a malformed run
    directory when ``strict=False``.
    """
    manifest = load_manifest(run_dir, strict=strict)
    if manifest is None:
        return None
    try:
        validate_manifest(manifest)
    except ReproError as exc:
        if strict:
            raise
        library_logger().warning("skipping invalid run %s: %s",
                                 run_dir, exc)
        return None
    spans = slowest_spans(os.path.join(run_dir, EVENTS_NAME), top=top)
    return {
        "run_dir": run_dir,
        "run_id": manifest.get("run_id"),
        "outcome": manifest.get("outcome"),
        "duration_s": manifest.get("duration_s"),
        "argv": manifest.get("argv"),
        "traces": manifest.get("traces", []),
        "counters": manifest.get("counters", {}),
        "cells": manifest.get("cells", []),
        "slowest_spans": [_span_row(r) for r in spans],
    }


def render_summary(summary: dict) -> str:
    """The plain-text report for one :func:`run_summary` dict."""
    out: List[str] = []
    out.append(f"run {summary['run_id']}  ({summary['outcome']}, "
               f"{summary['duration_s']:.2f}s)")
    if summary.get("argv"):
        out.append(f"  argv: {' '.join(summary['argv'])}")
    for trace in summary.get("traces", ()):
        out.append(f"  trace: {trace.get('name')}  key={trace.get('trace_key')}"
                   f"  procs={trace.get('num_procs')}"
                   f"  events={trace.get('events')}")
    counters = summary.get("counters", {})
    out.append("  counters: " + "  ".join(
        f"{name}={counters[name]}" for name in sorted(counters)))
    out.append("")

    cells = summary.get("cells", [])
    if cells:
        rows = []
        ratios = []
        for entry in cells:
            ratio = entry.get("footprint_ratio")
            if ratio:
                ratios.append(ratio)
            rows.append([
                _fmt_cell(entry.get("cell", [])),
                str(entry.get("status", "?")),
                str(entry.get("attempts", 0)),
                str(entry.get("shards", 0)),
                _fmt_num(entry.get("duration_s"), "{:.3f}"),
                str(entry.get("rows", 0)),
                _fmt_num(entry.get("events_per_sec"), "{:.0f}"),
                _fmt_num(ratio, "{:.2f}"),
                str(entry.get("result_sha256") or "-"),
            ])
        out.append(_table(
            ["cell", "status", "att", "shards", "dur_s", "rows",
             "ev/s", "pred/obs", "result"], rows))
        if ratios:
            out.append("")
            out.append(f"  footprint model: predicted/observed ratio "
                       f"mean={sum(ratios) / len(ratios):.2f} "
                       f"min={min(ratios):.2f} max={max(ratios):.2f} "
                       f"over {len(ratios)} cells")
    else:
        out.append("  (no cells recorded)")

    spans = summary.get("slowest_spans", [])
    if spans:
        out.append("")
        out.append(f"top {len(spans)} slowest spans:")
        span_rows = [[row.get("name") or "?",
                      f"{row.get('dur_s', 0.0):.3f}",
                      str(row.get("status", "?")),
                      str(row.get("target") if row.get("target")
                          is not None else "-")]
                     for row in spans]
        out.append(_table(["span", "dur_s", "status", "target"], span_rows))
    return "\n".join(out) + "\n"


def render_run(run_dir: str, *, top: int = 10) -> str:
    """The full plain-text report for one run directory."""
    return render_summary(run_summary(run_dir, top=top))


def report_summary(directory: str, *, top: int = 10) -> dict:
    """Every readable run under ``directory`` as one JSON-able object."""
    runs = find_runs(directory)
    if not runs:
        raise ReproError(
            f"no run manifests found under {directory!r} "
            f"(expected <dir>/<run-id>/manifest.json)")
    summaries = [s for s in (run_summary(run, top=top, strict=False)
                             for run in runs) if s is not None]
    if not summaries:
        raise ReproError(
            f"no readable run manifests under {directory!r} "
            f"({len(runs)} run directorie(s), all malformed)")
    return {"directory": directory, "runs": summaries}


def render_report(directory: str, *, top: int = 10,
                  stream: Optional[TextIO] = None,
                  as_json: bool = False) -> int:
    """Render every run under ``directory``; returns the run count."""
    summary = report_summary(directory, top=top)
    if as_json:
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(render_summary(s) for s in summary["runs"])
    if stream is not None:
        stream.write(text)
    return len(summary["runs"])
