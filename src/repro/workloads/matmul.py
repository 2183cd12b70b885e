"""MATMUL — blocked matrix multiply (supplementary workload).

Not one of the paper's four traced benchmarks, but the paper names matrix
multiply (with FFT) as a class of "important parallel algorithms" where
words are accessed essentially once — exactly the programs on which
Torrellas' word-granular first-touch cold-miss rule degenerates ("the
classification is only applicable to iterative algorithms in which words
are accessed more than once", section 3.1).  The classifier-comparison
benchmark uses it to demonstrate that failure mode quantitatively.

C = A x B with C rows interleaved over processors; A and B are read-shared,
C words are each written once.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from ..errors import ConfigError
from ..execution import ops
from ..execution.primitives import Barrier
from ..mem.allocator import Allocator
from ..trace.events import LOAD, STORE
from .base import Workload, split_round_robin


class MatMul(Workload):
    """``n`` x ``n`` matrix multiply, row-interleaved output."""

    name = "matmul"

    def __init__(self, n: int = 24, *, elem_words: int = 1,
                 num_procs: int = 16, seed: int = 0):
        super().__init__(num_procs=num_procs, seed=seed)
        if n < 1:
            raise ConfigError(f"matrix dimension must be >= 1, got {n}")
        if elem_words < 1:
            raise ConfigError(f"elem_words must be >= 1, got {elem_words}")
        self.n = n
        self.elem_words = elem_words

    @property
    def label(self) -> str:
        return f"MATMUL{self.n}"

    def build_threads(self, allocator: Allocator) -> List:
        n, ew = self.n, self.elem_words
        a = allocator.alloc_words("matmul.A", n * n * ew)
        b = allocator.alloc_words("matmul.B", n * n * ew)
        c = allocator.alloc_words("matmul.C", n * n * ew)
        barrier = Barrier("matmul.barrier", allocator, self.num_procs)

        words = np.arange(ew)
        cols = np.arange(n)
        # Row i of C as one run: per column j, per k, load A[i,k] then
        # B[k,j], then store C[i,j].
        row_codes = np.tile(np.repeat([LOAD, STORE], [2 * n * ew, ew]), n)

        def row(i: int) -> np.ndarray:
            loads = np.empty((n, n, 2, ew), dtype=np.int64)  # (j, k, A|B)
            loads[:, :, 0] = (a.base + (i * n + cols) * ew)[:, None] + words
            loads[:, :, 1] = (b.base + (cols * n + cols[:, None]) * ew)[
                ..., None] + words
            stores = (c.base + (i * n + cols) * ew)[:, None] + words
            return np.hstack((loads.reshape(n, -1), stores)).ravel()

        def thread(tid: int) -> Iterator:
            # Initialization phase: processor 0 fills A and B (their values
            # then flow to everyone — cold/CTS traffic), everyone waits.
            if tid == 0:
                yield (ops.RUN, STORE, range(a.base, a.end))
                yield (ops.RUN, STORE, range(b.base, b.end))
            yield from barrier.wait(tid)
            for i in split_round_robin(n, self.num_procs, tid):
                yield (ops.RUN, row_codes, row(i))
            yield from barrier.wait(tid)
            return

        return [thread(tid) for tid in range(self.num_procs)]
