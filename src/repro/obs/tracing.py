"""Causal span trees and critical-path attribution over run telemetry.

The recorder stamps every span with ``trace_id``/``span_id``/
``parent_id`` (parents ride the supervisor's assign messages to forked
workers — see :mod:`repro.runtime.supervisor`).  This module turns that
stream back into structure, for ``repro report``
(:mod:`repro.obs.report`):

* :func:`build_tree` reconstructs the span tree of a run — rooted at
  the ``run`` span :class:`~repro.obs.RunTelemetry` opens (runs
  recorded before it have one root per ``sweep.run``) — and reports any
  orphans (spans whose parent never arrived) instead of hiding them;
* :func:`critical_path` decomposes a root span's wall time into the
  maximal non-overlapping chain of descendant spans plus the *idle*
  gaps between them (queue wait, dispatch, scheduling) — by
  construction the segments tile the root exactly, so the critical
  path's total always equals the root span's duration;
* :func:`path_contributors` ranks the path's segments by self time,
  per trace: each segment carries the trace of the span it lies in (a
  cell span names only its cell; its trace is its ``sweep.run``'s).

Spans recorded before span ids existed are counted as *untraced*; an
all-untraced stream is a structured error from :func:`build_tree`, not
a crash.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .manifest import EVENTS_NAME
from .schema import iter_records

#: Gaps shorter than this are measurement noise, not idle time.
IDLE_EPS = 1e-4


class SpanNode:
    """One span of a reconstructed trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "dur_s",
                 "status", "attrs", "pid", "children")

    def __init__(self, record: dict):
        self.span_id: str = record["span_id"]
        self.parent_id: Optional[str] = record.get("parent_id")
        self.name: str = record.get("name", "?")
        self.start: float = float(record.get("t", 0.0))
        self.dur_s: float = float(record.get("dur_s", 0.0))
        self.status: str = record.get("status", "?")
        self.attrs: dict = record.get("attrs", {}) or {}
        self.pid = record.get("pid")
        self.children: List["SpanNode"] = []

    @property
    def end(self) -> float:
        return self.start + self.dur_s

    @property
    def target(self) -> Optional[str]:
        what = (self.attrs.get("cell") or self.attrs.get("trace")
                or self.attrs.get("key"))
        if isinstance(what, (list, tuple)):
            return "/".join(str(part) for part in what)
        return str(what) if what is not None else None


class TraceTree:
    """The reconstructed span forest of one run."""

    def __init__(self, trace_id: Optional[str], roots: List[SpanNode],
                 nodes: Dict[str, SpanNode], orphans: List[SpanNode],
                 untraced: int):
        self.trace_id = trace_id
        self.roots = roots
        self.nodes = nodes
        #: Spans whose ``parent_id`` resolves to no recorded span.
        self.orphans = orphans
        #: Spans recorded without ids (pre-tracing artifacts).
        self.untraced = untraced


def load_spans(run_dir: str) -> List[dict]:
    """All span records of a run directory's ``events.jsonl``."""
    events = run_dir
    if os.path.isdir(run_dir):
        events = os.path.join(run_dir, EVENTS_NAME)
    if not os.path.exists(events):
        raise ReproError(f"no event stream at {events!r}")
    return [record for _, record in iter_records(events)
            if record.get("kind") == "span"]


def build_tree(spans: Sequence[dict]) -> TraceTree:
    """Reconstruct the span tree; orphans are kept visible, not dropped."""
    nodes: Dict[str, SpanNode] = {}
    untraced = 0
    trace_id = None
    for record in spans:
        if not record.get("span_id"):
            untraced += 1
            continue
        node = SpanNode(record)
        nodes[node.span_id] = node
        if trace_id is None:
            trace_id = record.get("trace_id")
    if not nodes:
        raise ReproError(
            "no traced spans in this run (recorded before span-id "
            "threading, or telemetry was off)")
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for node in nodes.values():
        if node.parent_id is None:
            roots.append(node)
        elif node.parent_id in nodes:
            nodes[node.parent_id].children.append(node)
        else:
            orphans.append(node)
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.span_id))
    roots.sort(key=lambda n: (n.start, n.span_id))
    return TraceTree(trace_id, roots, nodes, orphans, untraced)


def load_tree(run_dir: str) -> TraceTree:
    return build_tree(load_spans(run_dir))


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
def _clip(node: SpanNode, lo: float, hi: float) -> Tuple[float, float]:
    return (max(node.start, lo), min(node.end, hi))


def _best_chain(node: SpanNode) -> List[SpanNode]:
    """The maximal-coverage chain of non-overlapping children.

    Weighted interval scheduling over the children's (clipped)
    intervals, weight = covered duration: the classic O(n log n) DP.
    Ties break toward earlier spans, so the choice is deterministic.
    """
    import bisect

    kids = []
    for child in node.children:
        lo, hi = _clip(child, node.start, node.end)
        if hi - lo > 0:
            kids.append((lo, hi, child))
    if not kids:
        return []
    kids.sort(key=lambda k: (k[1], k[0]))
    ends = [k[1] for k in kids]
    n = len(kids)
    best: List[float] = [0.0] * (n + 1)
    take: List[bool] = [False] * (n + 1)
    for i in range(1, n + 1):
        lo, hi, _ = kids[i - 1]
        j = bisect.bisect_right(ends, lo, 0, i - 1)
        with_i = best[j] + (hi - lo)
        if with_i > best[i - 1]:
            best[i], take[i] = with_i, True
        else:
            best[i] = best[i - 1]
    chain: List[SpanNode] = []
    i = n
    while i > 0:
        if take[i]:
            lo, hi, child = kids[i - 1]
            chain.append(child)
            i = bisect.bisect_right(ends, lo, 0, i - 1)
        else:
            i -= 1
    chain.reverse()
    return chain


def critical_path(root: SpanNode) -> List[dict]:
    """Decompose ``root``'s wall time into span and idle segments.

    Returns chronologically ordered segments that tile ``[root.start,
    root.end]`` exactly: the longest chain of run → sweep →
    cell/shard/merge spans, with the gaps between them attributed as
    ``(idle)`` time under the enclosing span (queue wait, dispatch,
    scheduling).  The segment durations therefore always sum to the
    root's duration.  Each segment's ``trace`` is the ``trace``
    attribute of its span or of the nearest enclosing span that has one
    (a ``sweep.run``), else ``None``.
    """
    segments: List[dict] = []

    def walk(node: SpanNode, lo: float, hi: float,
             trace: Optional[str]) -> None:
        trace = node.attrs.get("trace", trace)
        chain = _best_chain(node)
        cursor = lo
        for child in chain:
            c_lo, c_hi = _clip(child, lo, hi)
            if c_lo - cursor > IDLE_EPS:
                segments.append({
                    "kind": "idle", "name": "(idle)",
                    "under": node.name, "target": node.target,
                    "trace": trace, "span_id": None,
                    "start": cursor, "end": c_lo,
                    "dur_s": c_lo - cursor,
                })
            if child.children:
                walk(child, c_lo, c_hi, trace)
            else:
                segments.append({
                    "kind": "span", "name": child.name,
                    "under": node.name, "target": child.target,
                    "trace": child.attrs.get("trace", trace),
                    "span_id": child.span_id,
                    "start": c_lo, "end": c_hi,
                    "dur_s": c_hi - c_lo,
                })
            cursor = max(cursor, c_hi)
        if hi - cursor > IDLE_EPS:
            segments.append({
                "kind": "idle", "name": "(idle)",
                "under": node.name, "target": node.target,
                "trace": trace, "span_id": None,
                "start": cursor, "end": hi,
                "dur_s": hi - cursor,
            })

    if not root.children:
        # A leaf root: its whole duration is its own self time, never
        # idle (the trailing-gap branch above would otherwise claim it).
        return [{"kind": "span", "name": root.name,
                 "under": None, "target": root.target,
                 "trace": root.attrs.get("trace"),
                 "span_id": root.span_id,
                 "start": root.start, "end": root.end,
                 "dur_s": root.dur_s}]
    walk(root, root.start, root.end, None)
    return segments


def path_contributors(segments: Sequence[dict],
                      total: float) -> List[dict]:
    """Aggregate critical-path segments into ranked contributors.

    Groups by (kind, span name, trace, target), so one cell of two
    traces is two rows; ``self_pct`` is the group's share of the root
    span's duration.  Sorted largest first.
    """
    groups: Dict[Tuple, dict] = {}
    for seg in segments:
        key = (seg["kind"], seg["name"],
               seg.get("under") if seg["kind"] == "idle" else None,
               seg.get("trace"), seg.get("target"))
        entry = groups.setdefault(key, {
            "kind": seg["kind"], "name": seg["name"],
            "under": seg.get("under") if seg["kind"] == "idle" else None,
            "trace": seg.get("trace"), "target": seg.get("target"),
            "dur_s": 0.0, "segments": 0,
        })
        entry["dur_s"] += seg["dur_s"]
        entry["segments"] += 1
    out = sorted(groups.values(), key=lambda g: -g["dur_s"])
    for entry in out:
        entry["dur_s"] = round(entry["dur_s"], 6)
        entry["self_pct"] = (round(100.0 * entry["dur_s"] / total, 2)
                             if total > 0 else None)
    return out
