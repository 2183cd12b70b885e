"""In-memory spans for the benchmark's traced passes, and the layer table.

A span is recorded around each call the benchmark makes into one layer of
the program.  Its name is ``<layer>.<what>``, where the layer is the
``repro`` subpackage the called function lives in (``trace.cache_get``,
``protocols.cell.MIN``, ``runtime.grid``, ...).  Spans are kept in memory
and written out once, when the run ends.

The layer table adds up by construction: every span's self time is its
duration minus the time its direct children cover, so the self times of
one pass sum to the duration of its top-level spans, and
``unattributed_s`` is the rest of the pass's wall time (the benchmark's
own glue between calls).
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional


class Spans:
    """Spans of one run: name, start, end, parent and pass id."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self.passes: Dict[int, float] = {}
        self._stack: List[int] = []
        self._pass: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one call into a layer; nested spans become children."""
        rec = {"id": len(self.records), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "pass": self._pass, "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def traced_pass(self, pass_id: int) -> Iterator[None]:
        """Time one traced pass; its spans carry ``pass_id``."""
        self._pass = pass_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.passes[pass_id] = time.perf_counter() - start
            self._pass = None

    def matching(self, name: str, pass_ids) -> List[dict]:
        """Spans of the given passes called ``name`` or ``name.<more>``."""
        return [r for r in self.records
                if r["pass"] in pass_ids
                and (r["name"] == name or r["name"].startswith(name + "."))]

    def total(self, name: str, pass_id: int) -> float:
        """Seconds one pass spent in spans matching ``name``."""
        return sum(r["end"] - r["start"]
                   for r in self.matching(name, (pass_id,)))

    def layer_table(self, pass_id: int) -> Dict[str, float]:
        """Self seconds per layer in one pass, plus ``unattributed``.

        The values sum to the pass's wall time (up to float rounding).
        """
        mine = [r for r in self.records if r["pass"] == pass_id]
        child_time: Dict[int, float] = {}
        for r in mine:
            if r["parent"] is not None:
                child_time[r["parent"]] = (child_time.get(r["parent"], 0.0)
                                           + r["end"] - r["start"])
        table: Dict[str, float] = {}
        top = 0.0
        for r in mine:
            dur = r["end"] - r["start"]
            layer = layer_of(r["name"])
            table[layer] = (table.get(layer, 0.0)
                            + dur - child_time.get(r["id"], 0.0))
            if r["parent"] is None:
                top += dur
        table["unattributed"] = self.passes[pass_id] - top
        return table

    def dump(self, path: str, stamp: dict) -> None:
        """Write the spans and the run's stamp as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"stamp": stamp, "passes": self.passes,
                       "spans": self.records}, fh)


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: the first dotted component."""
    return span_name.split(".", 1)[0]
