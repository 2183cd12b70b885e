"""Builders for the paper's Figures 5 and 6 data series."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..classify.breakdown import MissClass
from ..protocols.results import ProtocolResult
from ..protocols.runner import run_protocols
from ..trace.trace import Trace
from .report import format_stacked_bars, format_table
from .sweep import SweepResult, sweep_block_sizes


@dataclass(frozen=True)
class Fig5Panel:
    """One benchmark's Figure 5 panel (five stacked series vs block size)."""

    sweep: SweepResult

    def series(self) -> Dict[str, List[float]]:
        """The five class-rate series, keyed PC/CTS/CFS/PTS/PFS."""
        return {mc.value: self.sweep.series(mc) for mc in MissClass}

    def format(self) -> str:
        return self.sweep.format()


def figure5(traces: Iterable[Trace],
            block_sizes: Optional[Sequence[int]] = None,
            *, jobs: int = 1, options=None) -> Dict[str, Fig5Panel]:
    """Figure 5: classification vs block size, one panel per benchmark.

    ``jobs > 1`` fans each panel's block sizes out over supervised worker
    processes; ``options`` (an
    :class:`repro.analysis.engine.ExecutionOptions`) threads the
    resilience knobs through to each panel's engine.
    """
    def panel(trace: Trace) -> Tuple[str, Fig5Panel]:
        return trace.name, Fig5Panel(sweep_block_sizes(
            trace, block_sizes, jobs=jobs, options=options))

    # map drops each trace once its panel is built, so a generator of
    # traces keeps only one of them live.
    return dict(map(panel, traces))


@dataclass(frozen=True)
class Fig6Panel:
    """One benchmark's Figure 6 group: all protocols at one block size."""

    trace_name: str
    block_bytes: int
    results: Dict[str, ProtocolResult]

    def bars(self) -> Dict[str, Dict[str, float]]:
        """TRUE/COLD/FALSE stacked components per protocol (percent).

        The paper displays only the total for MIN (no false sharing by
        construction), WBWI and MAX; we decompose everything but keep the
        paper's convention available via :meth:`totals`.
        """
        return {name: {"TRUE": r.pts_rate, "COLD": r.cold_rate,
                       "FALSE": r.pfs_rate}
                for name, r in self.results.items()}

    def totals(self) -> Dict[str, float]:
        """Total miss rate per protocol."""
        return {name: r.miss_rate for name, r in self.results.items()}

    def format(self) -> str:
        title = (f"{self.trace_name} @ B={self.block_bytes} bytes "
                 f"(miss rate %, decomposed)")
        return format_stacked_bars(self.bars(), title=title,
                                   glyphs={"TRUE": "T", "COLD": "C",
                                           "FALSE": "F"})

    def format_table(self) -> str:
        headers = ["protocol", "TRUE%", "COLD%", "FALSE%", "TOTAL%",
                    "ownership", "inval-sent"]
        rows = []
        for name, r in self.results.items():
            rows.append([name, f"{r.pts_rate:.2f}", f"{r.cold_rate:.2f}",
                         f"{r.pfs_rate:.2f}", f"{r.miss_rate:.2f}",
                         r.counters.ownership_misses,
                         r.counters.invalidations_sent])
        return format_table(headers, rows,
                            title=f"{self.trace_name} @ B={self.block_bytes}")


def figure6(traces: Sequence[Trace], block_bytes: int,
            protocols: Optional[Sequence[str]] = None,
            *, jobs: int = 1, options=None) -> Dict[str, Fig6Panel]:
    """Figure 6 (a: B=64, b: B=1024): protocol comparison per benchmark.

    ``jobs > 1`` fans each benchmark's protocols out over worker
    processes; ``options`` threads the engine's resilience knobs through.
    """
    panels = {}
    for trace in traces:
        results = run_protocols(trace, block_bytes, protocols, jobs=jobs,
                                options=options)
        panels[trace.name] = Fig6Panel(trace_name=trace.name,
                                       block_bytes=block_bytes,
                                       results=results)
    return panels
