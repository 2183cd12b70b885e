"""SOR — red-black successive over-relaxation (supplementary workload).

Not one of the paper's four traces, but the canonical grid kernel of the
same era (SPLASH OCEAN's relaxation step).  It complements JACOBI with a
different sharing flavor: a *single* grid updated in place, in two
barrier-separated color phases per iteration.  A red cell's neighbours are
all black (and vice versa), so each phase writes one color while reading
the other — race-free without double buffering, but with twice the barrier
rate and in-place RMW sharing at the partition boundaries.

Useful as a cross-check that the Figure 5 shapes (element-size halving,
partition-row false-sharing jump) are properties of the decomposition, not
of Jacobi's two-grid trick.
"""

from __future__ import annotations

import math
from typing import Iterator, List

import numpy as np

from ..errors import ConfigError
from ..execution import ops
from ..execution.primitives import Barrier
from ..mem.allocator import Allocator
from ..trace.events import LOAD, STORE
from .base import Workload


class SOR(Workload):
    """Red-black SOR on one ``grid_dim`` x ``grid_dim`` grid.

    Parameters
    ----------
    grid_dim:
        Grid side; divisible by ``sqrt(num_procs)``.
    iterations:
        Full red+black sweeps.
    elem_words:
        Words per element (default 2: 8-byte doubles).
    """

    name = "sor"

    def __init__(self, grid_dim: int = 64, iterations: int = 3, *,
                 elem_words: int = 2, num_procs: int = 16, seed: int = 0):
        super().__init__(num_procs=num_procs, seed=seed)
        side = math.isqrt(num_procs)
        if side * side != num_procs:
            raise ConfigError(
                f"sor needs a square processor count, got {num_procs}")
        if grid_dim % side:
            raise ConfigError(
                f"grid_dim {grid_dim} not divisible by decomposition "
                f"side {side}")
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        if elem_words < 1:
            raise ConfigError(f"elem_words must be >= 1, got {elem_words}")
        self.grid_dim = grid_dim
        self.iterations = iterations
        self.elem_words = elem_words
        self._side = side

    @property
    def label(self) -> str:
        return f"SOR{self.grid_dim}"

    # ------------------------------------------------------------------
    def build_threads(self, allocator: Allocator) -> List:
        dim, ew = self.grid_dim, self.elem_words
        grid = allocator.alloc_words("sor.grid", dim * dim * ew)
        barrier = Barrier("sor.barrier", allocator, self.num_procs)
        sub = dim // self._side

        def elem(row: int, col: int) -> int:
            return grid.base + (row * dim + col) * ew

        def phase(row0: int, col0: int, color: int):
            """One color phase of a subgrid as one run: per cell of that
            color, row-major, an in-place update from its four neighbours.
            Edges clamp, and a neighbour clamped onto the cell itself is
            skipped (the read-modify-write of the cell reads it)."""
            starts, codes = [], []
            for r in range(row0, row0 + sub):
                for c in range(col0, col0 + sub):
                    if (r + c) % 2 != color:
                        continue
                    for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1),
                                   (r, c + 1)):
                        nr = min(max(nr, 0), dim - 1)
                        nc = min(max(nc, 0), dim - 1)
                        if (nr, nc) != (r, c):
                            starts.append(elem(nr, nc))
                            codes.append(LOAD)
                    starts += [elem(r, c), elem(r, c)]
                    codes += [LOAD, STORE]
            addrs = np.array(starts, dtype=np.int64)[:, None] + np.arange(ew)
            return (ops.RUN, np.repeat(codes, ew), addrs.ravel())

        def thread(tid: int) -> Iterator:
            row0 = (tid // self._side) * sub
            col0 = (tid % self._side) * sub
            phases = [phase(row0, col0, color) for color in (0, 1)]
            for _ in range(self.iterations):
                for run in phases:
                    yield run
                    yield from barrier.wait(tid)
            return

        return [thread(tid) for tid in range(self.num_procs)]
