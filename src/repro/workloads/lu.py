"""LU — dense LU decomposition, column-interleaved (paper sections 5.0/6.0).

"LU performs the LU-decomposition of a dense matrix.  The overall
computation consists of modifying each column based on the values in all
columns to its left.  Columns are modified from left to right.  They are
statically assigned to processors in a finely interleaved fashion.  Each
processor waits until a column has been produced and then uses it to modify
all its columns."

Sharing structure reproduced here (paper section 6.0):

* each column goes through two phases — written exclusively by its owner,
  then read by everyone — which produces CTS misses at small blocks that
  turn into PTS misses as blocks grow past the column size;
* columns are interleaved among processors and stored contiguously, so
  blocks spanning column boundaries (the small right-triangle columns
  especially) are false-shared even at small block sizes.

Producer/consumer ordering uses one ANL-style flag word per column
(adjacent flag words are themselves a false-sharing source, as in the
original ANL macros).
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from ..errors import ConfigError
from ..execution import ops
from ..execution.primitives import make_flags
from ..mem.allocator import Allocator
from ..trace.events import LOAD, STORE
from .base import Workload, split_round_robin


class LU(Workload):
    """LU decomposition of an ``n`` x ``n`` matrix on ``num_procs`` processors.

    Parameters
    ----------
    n:
        Matrix dimension.  The paper runs LU32 (n=32) and LU200 (n=200).
    elem_words:
        Words per matrix element (default 2: double precision).
    num_procs, seed:
        See :class:`~repro.workloads.base.Workload`.
    """

    name = "lu"

    def __init__(self, n: int = 32, *, elem_words: int = 2,
                 num_procs: int = 16, seed: int = 0):
        super().__init__(num_procs=num_procs, seed=seed)
        if n < 2:
            raise ConfigError(f"matrix dimension must be >= 2, got {n}")
        if elem_words < 1:
            raise ConfigError(f"elem_words must be >= 1, got {elem_words}")
        self.n = n
        self.elem_words = elem_words

    @property
    def label(self) -> str:
        return f"LU{self.n}"

    # ------------------------------------------------------------------
    def build_threads(self, allocator: Allocator) -> List:
        n, ew = self.n, self.elem_words
        # Column-major storage: column j occupies n*ew contiguous words.
        matrix = allocator.alloc_words("lu.matrix", n * n * ew)
        col_base = matrix.base + np.arange(n) * (n * ew)
        flags = make_flags("lu.colflag", allocator, n)

        words = np.arange(ew)
        # Per matrix row, the words of one element: a normalize step loads
        # then stores it; a column update loads the multiplier, then loads
        # and stores the target.  Each run's opcodes are a prefix of the
        # longest such run's.
        normalize_codes = np.concatenate(
            (np.full(ew, LOAD), np.tile(np.repeat([LOAD, STORE], ew), n - 1)))
        most_cols = len(split_round_robin(n, self.num_procs, 0))
        update_codes = np.tile(np.repeat([LOAD, LOAD, STORE], ew),
                               most_cols * (n - 1))

        def normalize(k: int):
            """Column k's normalize as one run: load the pivot, then
            read-modify-write rows k+1.. of the column."""
            rows = col_base[k] + np.arange(k + 1, n) * ew
            addrs = np.concatenate(
                (col_base[k] + k * ew + words,
                 (rows[:, None] + np.tile(words, 2)).ravel()))
            return (ops.RUN, normalize_codes[:len(addrs)], addrs)

        def update(k: int, cols: np.ndarray):
            """The update of columns ``cols`` by column k as one run: per
            column, per row k+1.., read the multiplier, then
            read-modify-write the target element."""
            rows = np.arange(k + 1, n) * ew
            src = col_base[k] + rows
            dst = col_base[cols][:, None] + rows
            addrs = np.empty((len(cols), n - k - 1, 3, ew), dtype=np.int64)
            addrs[:, :, 0] = src[:, None] + words
            addrs[:, :, 1] = addrs[:, :, 2] = dst[:, :, None] + words
            return (ops.RUN, update_codes[:addrs.size], addrs.ravel())

        def thread(tid: int) -> Iterator:
            mine = split_round_robin(n, self.num_procs, tid)
            my_cols = np.array(mine)
            for k in range(n):
                if k in mine:
                    # Normalize column k: divide rows k+1.. by the pivot.
                    yield normalize(k)
                    yield from flags[k].set(tid)
                else:
                    yield from flags[k].wait(tid)
                # Update my columns to the right of k.
                yield update(k, my_cols[my_cols > k])
            return

        return [thread(tid) for tid in range(self.num_procs)]
