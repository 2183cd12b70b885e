"""Block-size sweeps (the x-axis of the paper's Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..classify.breakdown import DuboisBreakdown, MissClass
from ..classify.compare import ClassificationComparison
from ..trace.trace import Trace
from .report import format_table


@dataclass(frozen=True)
class SweepResult:
    """Classification of one trace at several block sizes."""

    trace_name: str
    block_sizes: Tuple[int, ...]
    breakdowns: Tuple[DuboisBreakdown, ...]

    def series(self, mclass: MissClass) -> List[float]:
        """Miss-rate series (percent) of one class across block sizes."""
        return [bd.rate(bd.count(mclass)) for bd in self.breakdowns]

    def essential_series(self) -> List[float]:
        return [bd.essential_rate for bd in self.breakdowns]

    def total_series(self) -> List[float]:
        return [bd.miss_rate for bd in self.breakdowns]

    def at(self, block_bytes: int) -> DuboisBreakdown:
        """The breakdown for one block size."""
        return self.breakdowns[self.block_sizes.index(block_bytes)]

    def format(self) -> str:
        """Figure 5 panel as a text table (counts and rates)."""
        headers = ["B", "PC", "CTS", "CFS", "PTS", "PFS",
                   "miss%", "essential%"]
        rows = []
        for bb, bd in zip(self.block_sizes, self.breakdowns):
            rows.append([bb, bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs,
                         f"{bd.miss_rate:.2f}", f"{bd.essential_rate:.2f}"])
        return format_table(headers, rows,
                            title=f"{self.trace_name}: classification vs block size")


def sweep_block_sizes(trace: Trace,
                      block_sizes: Optional[Sequence[int]] = None,
                      *, jobs: int = 1, options=None) -> SweepResult:
    """Classify ``trace`` at each block size (default: the paper's 4..1024).

    Runs on the sweep engine: every block size's kernel cell shares one
    batch plan of the trace's data rows, and ``jobs > 1`` fans the block
    sizes out over supervised worker processes (see
    :class:`repro.analysis.engine.SweepEngine`).  ``options`` is an
    optional :class:`repro.analysis.engine.ExecutionOptions` carrying the
    resilience knobs (retries, timeout, checkpointing, strict invariants).
    """
    from .engine import SweepEngine  # deferred: engine imports SweepResult

    kwargs = options.engine_kwargs() if options is not None else {}
    return SweepEngine(trace, jobs=jobs, **kwargs).classify_sweep(block_sizes)


def sweep_comparisons(trace: Trace,
                      block_sizes: Optional[Sequence[int]] = None,
                      *, jobs: int = 1,
                      options=None) -> Dict[int, ClassificationComparison]:
    """Three-way classifier comparison at each block size."""
    from .engine import SweepEngine  # deferred: engine imports SweepResult

    kwargs = options.engine_kwargs() if options is not None else {}
    return SweepEngine(trace, jobs=jobs, **kwargs).compare_sweep(block_sizes)
