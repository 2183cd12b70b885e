"""Render recorded runs: ``repro report`` and ``repro diff``.

``repro report`` takes a ``--telemetry`` directory (or one run directory
inside it) and prints, for each run,

* a header with run id, outcome, wall duration, counters and the span
  counts (traced, orphaned, untraced),
* a per-cell table (status, attempts, shards, duration, rows, events/s,
  result digest; a trace column when the run holds several traces),
* the critical path of each root span of ``events.jsonl``
  (:mod:`repro.obs.tracing`): where the run's wall time went, as
  ranked contributors that tile the root, idle gaps included, one row
  per (trace, span, target) and a trace column when the path crosses
  several traces.  A run's root is its ``run`` span; a run recorded
  before that span existed has one root per ``sweep.run``, and a run
  without span ids prints its cell table and a note.

Everything is computed over the manifest and event stream — the same
artifacts the tests validate — so the report doubles as a smoke test
that a run's telemetry is complete and well-formed.  ``--json`` emits
the identical content as one machine-readable object
(:func:`report_summary`), which ``repro diff`` accepts as a kept
baseline.  Malformed or half-written run directories are skipped with a
logged warning instead of aborting the whole report.

``repro diff RUN_A RUN_B`` (:func:`diff_manifests` /
:func:`render_diff`) is a per-cell regression table (duration,
events/s, attempts, kernel) with threshold-flagged deltas.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..errors import ReproError
from .logsetup import library_logger
from .manifest import (EVENTS_NAME, MANIFEST_NAME, find_runs, load_manifest,
                       validate_manifest)
from .tracing import build_tree, critical_path, load_spans, path_contributors


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


def _cell_table(entries: List[dict], headers: List[str],
                rows: List[List[str]]) -> str:
    """:func:`_table` of one row per cell entry, led by a trace column
    when the entries span more than one trace."""
    if len({entry.get("trace_key") for entry in entries}) > 1:
        headers = ["trace"] + headers
        rows = [[str(entry.get("trace") or entry.get("trace_key"))] + row
                for entry, row in zip(entries, rows)]
    return _table(headers, rows)


def _span_paths(events_path: str, *, top: int = 10) -> dict:
    """The span counts of an ``events.jsonl`` and the critical path of
    each root span, as its ``top`` largest contributors."""
    spans = load_spans(events_path) if os.path.exists(events_path) else []
    traced = [record for record in spans if record.get("span_id")]
    out = {"trace_id": None, "spans": len(traced),
           "untraced_spans": len(spans) - len(traced),
           "orphan_spans": 0, "critical_paths": []}
    if not traced:
        return out
    tree = build_tree(traced)
    out["trace_id"] = tree.trace_id
    out["orphan_spans"] = len(tree.orphans)
    for root in tree.roots:
        segments = critical_path(root)
        out["critical_paths"].append({
            "root": root.name,
            "target": root.target,
            "root_dur_s": round(root.dur_s, 6),
            "path_total_s": round(sum(s["dur_s"] for s in segments), 6),
            "contributors": path_contributors(segments, root.dur_s)[:top],
        })
    return out


def run_summary(run_dir: str, *, top: int = 10,
                strict: bool = True) -> Optional[dict]:
    """One run's report as data: manifest fields plus critical paths.

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
    return {
        "run_dir": run_dir,
        "run_id": manifest.get("run_id"),
        "outcome": manifest.get("outcome"),
        "duration_s": manifest.get("duration_s"),
        "argv": manifest.get("argv"),
        "traces": manifest.get("traces", []),
        "counters": manifest.get("counters", {}),
        "cells": manifest.get("cells", []),
        **_span_paths(os.path.join(run_dir, EVENTS_NAME), top=top),
    }


def _render_path(path: dict) -> List[str]:
    """One root's critical path as a ranked contributor table, with a
    trace column when its contributors lie in more than one trace."""
    what = path["root"] + (f"  {path['target']}" if path["target"] else "")
    contributors = path["contributors"]
    by_trace = len({c.get("trace") for c in contributors} - {None}) > 1
    rows = []
    for i, c in enumerate(contributors, start=1):
        rows.append([
            str(i),
            c["name"] if c["kind"] == "span" else f"(idle under {c['under']})",
            *([str(c.get("trace") or "-")] if by_trace else []),
            str(c.get("target") or "-"),
            f"{c['dur_s']:.3f}",
            _fmt_num(c.get("self_pct"), "{:.1f}%"),
            str(c["segments"]),
        ])
    headers = ["#", "what", *(["trace"] if by_trace else []), "target",
               "dur_s", "self", "segs"]
    return [f"critical path of {what} ({path['path_total_s']:.3f}s over "
            f"a {path['root_dur_s']:.3f}s span):",
            _table(headers, rows)]


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
    out.append(f"  spans: {summary['spans']}  "
               f"orphans={summary['orphan_spans']}  "
               f"untraced={summary['untraced_spans']}")
    if summary["orphan_spans"]:
        out.append(f"  warning: {summary['orphan_spans']} span(s) have "
                   f"unresolved parents and were promoted to roots")
    out.append("")

    cells = summary.get("cells", [])
    if cells:
        rows = []
        for entry in cells:
            rows.append([
                _fmt_cell(entry.get("cell", [])),
                str(entry.get("status", "?")),
                str(entry.get("attempts", 0)),
                str(entry.get("shards", 0)),
                _fmt_num(entry.get("duration_s"), "{:.3f}"),
                str(entry.get("rows", 0)),
                _fmt_num(entry.get("events_per_sec"), "{:.0f}"),
                str(entry.get("result_sha256") or "-"),
            ])
        out.append(_cell_table(
            cells, ["cell", "status", "att", "shards", "dur_s", "rows",
                    "ev/s", "result"], rows))
    else:
        out.append("  (no cells recorded)")

    for path in summary["critical_paths"]:
        out.append("")
        out.extend(_render_path(path))
    if not summary["critical_paths"]:
        out.append("")
        out.append("  (no traced spans: no critical path to show)")
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


# ----------------------------------------------------------------------
# run diffing (repro diff)
# ----------------------------------------------------------------------
def single_run_dir(path: str) -> str:
    """Resolve ``path`` to exactly one run directory.

    Accepts a run directory itself or a ``--telemetry`` directory that
    contains exactly one run; several runs is an error naming them, so
    the caller picks.
    """
    path = os.path.expanduser(path)
    if os.path.exists(os.path.join(path, MANIFEST_NAME)) or \
            os.path.exists(os.path.join(path, EVENTS_NAME)):
        return path
    runs = find_runs(path)
    if len(runs) == 1:
        return runs[0]
    if not runs:
        raise ReproError(f"no recorded runs under {path!r}")
    names = ", ".join(os.path.basename(r) for r in runs)
    raise ReproError(
        f"{path!r} holds {len(runs)} runs ({names}); pass one run "
        f"directory")


def _load_run_manifest(path: str) -> dict:
    """A manifest-shaped dict from a run dir, a ``--telemetry`` dir with
    one run, or a ``repro report --json`` output file."""
    path = os.path.expanduser(path)
    if os.path.isfile(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {path!r}: {exc}") from None
        if isinstance(data, dict) and "runs" in data:
            runs = data["runs"]
            if len(runs) != 1:
                raise ReproError(
                    f"{path!r} holds {len(runs)} runs; diff needs "
                    f"exactly one per side")
            return runs[0]
        if isinstance(data, dict) and "cells" in data:
            return data
        raise ReproError(f"{path!r} is not a manifest or report JSON")
    manifest = load_manifest(single_run_dir(path))
    assert manifest is not None
    return manifest


def _cell_key(entry: dict) -> Tuple:
    return (entry.get("trace_key"),
            tuple(entry.get("cell") or ()))


def diff_manifests(a: dict, b: dict, *, threshold: float = 0.2,
                   min_seconds: float = 0.005) -> dict:
    """Per-cell comparison of two runs of (ideally) the same grid.

    ``threshold`` is the relative duration change that flags a cell
    (0.2 = ±20 %); cells faster than ``min_seconds`` in both runs are
    never flagged — their deltas are noise.  Sign convention: positive
    ``delta_pct`` means run B is *slower* (a regression).
    """
    cells_a = {_cell_key(c): c for c in a.get("cells", [])}
    cells_b = {_cell_key(c): c for c in b.get("cells", [])}
    keys = list(cells_a)
    keys.extend(k for k in cells_b if k not in cells_a)
    rows: List[dict] = []
    for key in keys:
        ca, cb = cells_a.get(key), cells_b.get(key)
        entry: Dict[str, Any] = {
            "trace": (ca or cb).get("trace"),
            "trace_key": key[0],
            "cell": list(key[1]),
            "only_in": "a" if cb is None else "b" if ca is None else None,
            "duration_a": ca.get("duration_s") if ca else None,
            "duration_b": cb.get("duration_s") if cb else None,
            "events_per_sec_a": ca.get("events_per_sec") if ca else None,
            "events_per_sec_b": cb.get("events_per_sec") if cb else None,
            "attempts_a": ca.get("attempts") if ca else None,
            "attempts_b": cb.get("attempts") if cb else None,
            "kernel_a": ca.get("kernel") if ca else None,
            "kernel_b": cb.get("kernel") if cb else None,
            "delta_pct": None,
            "flag": None,
        }
        da, db = entry["duration_a"], entry["duration_b"]
        if da and db:
            entry["delta_pct"] = round(100.0 * (db - da) / da, 2)
            if max(da, db) >= min_seconds:
                if db >= da * (1.0 + threshold):
                    entry["flag"] = "regression"
                elif da >= db * (1.0 + threshold):
                    entry["flag"] = "improvement"
        rows.append(entry)
    return {
        "run_a": a.get("run_id"),
        "run_b": b.get("run_id"),
        "threshold_pct": round(100.0 * threshold, 2),
        "cells": rows,
        "regressions": [r for r in rows if r["flag"] == "regression"],
        "improvements": [r for r in rows if r["flag"] == "improvement"],
    }


def diff_runs(path_a: str, path_b: str, *, threshold: float = 0.2,
              min_seconds: float = 0.005) -> dict:
    return diff_manifests(_load_run_manifest(path_a),
                          _load_run_manifest(path_b),
                          threshold=threshold, min_seconds=min_seconds)


def render_diff(diff: dict) -> str:
    """The plain-text ``repro diff`` regression table."""
    out: List[str] = []
    out.append(f"diff {diff.get('run_a') or 'A'} -> "
               f"{diff.get('run_b') or 'B'}  "
               f"(flag threshold ±{diff['threshold_pct']:.0f}%)")
    rows = []
    for entry in diff["cells"]:
        mark = {"regression": "▲ SLOWER", "improvement": "▼ faster",
                None: ""}[entry["flag"]]
        if entry["only_in"]:
            mark = f"only in {entry['only_in'].upper()}"
        kern = (entry.get("kernel_a") or "-", entry.get("kernel_b") or "-")
        rows.append([
            _fmt_cell(entry["cell"]),
            _fmt_num(entry["duration_a"], "{:.3f}"),
            _fmt_num(entry["duration_b"], "{:.3f}"),
            _fmt_num(entry["delta_pct"], "{:+.1f}%"),
            _fmt_num(entry["events_per_sec_a"], "{:.0f}"),
            _fmt_num(entry["events_per_sec_b"], "{:.0f}"),
            f"{entry['attempts_a'] or 0}/{entry['attempts_b'] or 0}",
            kern[0] if kern[0] == kern[1] else f"{kern[0]}->{kern[1]}",
            mark,
        ])
    out.append(_cell_table(
        diff["cells"], ["cell", "dur_a", "dur_b", "Δdur", "ev/s_a",
                        "ev/s_b", "att a/b", "kernel", "flag"], rows))
    out.append("")
    out.append(f"{len(diff['regressions'])} regression(s), "
               f"{len(diff['improvements'])} improvement(s) over "
               f"{len(diff['cells'])} cell(s)")
    return "\n".join(out) + "\n"
