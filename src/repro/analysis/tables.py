"""Builders for the paper's Tables 1 and 2."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..classify.compare import ClassificationComparison
from ..trace.stats import BenchmarkStats, benchmark_stats
from ..trace.trace import Trace
from .report import format_table
from .sweep import sweep_comparisons

#: The row order of the paper's Table 1 (the paper prints "FPS", an
#: obvious typo for the false-sharing row; we label it PFS).
TABLE1_ROWS = ("PTS-ours", "TSM-Eggers", "TSM-Torrellas",
               "COLD-ours", "COLD-Eggers", "COLD-Torrellas",
               "PFS-ours", "PFS-Eggers", "PFS-Torrellas")

#: The paper's Table 1 columns: (benchmark, block size in bytes).
TABLE1_PAPER_COLUMNS = (("LU", 32), ("LU", 1024), ("MP3D", 32), ("MP3D", 1024))


def build_table1(traces: Iterable[Trace],
                 block_sizes: Sequence[int] = (32, 1024)
                 ) -> Dict[Tuple[str, int], ClassificationComparison]:
    """Three-way comparison of each trace at each block size.

    The paper's Table 1 uses LU200 and MP3D10000 at 32 and 1,024 bytes;
    pass whichever traces/sizes you generated.  Each trace's columns are
    the sweep engine's ``compare`` cells, which share one batch plan.
    """
    def columns(trace: Trace) -> list:
        comparisons = sweep_comparisons(trace, block_sizes)
        return [((trace.name, bb), comparisons[bb]) for bb in block_sizes]

    # map drops each trace once its columns are built, so a generator of
    # traces keeps only one of them live.
    return dict(itertools.chain.from_iterable(map(columns, traces)))


def format_table1(comparisons: Dict[Tuple[str, int], ClassificationComparison]
                  ) -> str:
    """Render Table 1: one column per (benchmark, block size)."""
    columns = list(comparisons)
    headers = ["ROW"] + [f"{name}@{bb}B" for name, bb in columns]
    rows: List[List] = []
    for row_name in TABLE1_ROWS:
        row: List = [row_name]
        for key in columns:
            row.append(f"{comparisons[key].table1_rows()[row_name]:,}")
        rows.append(row)
    return format_table(headers, rows,
                        title="Table 1: classification comparison "
                              "(counts of misses)")


def build_table2(traces: Iterable[Trace]) -> List[BenchmarkStats]:
    """Benchmark characteristics (Table 2) for each trace, one at a time."""
    return list(map(benchmark_stats, traces))


def format_table2(stats: Sequence[BenchmarkStats]) -> str:
    """Render Table 2 with the paper's columns."""
    headers = ["BENCHMARK", "SPEEDUP", "WRITES (000's)", "READS (000's)",
               "ACQ/REL (000's)", "DATA SET (KB)"]
    rows = [[s.as_row()[h] for h in headers] for s in stats]
    return format_table(headers, rows,
                        title="Table 2: characteristics of the benchmarks")
