"""JACOBI — iterative PDE solver on two grids (paper sections 5.0/6.0).

"Two 64x64 grid arrays of double precision floating point numbers (8 bytes
each) are modified in turn in each iteration.  A component in one grid is
updated by taking the average of the four neighbors of the same component
in the other grid.  After each iteration, the processors synchronize
through a barrier synchronization, a test for convergence is done and the
two arrays are switched.  In each iteration, one array is read only and the
other one is write only ...  Each of the 16 processors is assigned to the
update of a 16x16 subgrid."

Sharing structure reproduced here:

* 8-byte elements (two words) — true sharing halves from B=4 to B=8;
* row-major grids with square subgrid decomposition — a subgrid row is 16
  elements = 128 bytes, so false sharing jumps at B=256 when one block
  spans two processors' partitions;
* an ANL barrier per iteration whose counter and flag words are adjacent —
  the false-sharing source the paper identifies at B=8;
* a lock-protected global convergence accumulator.
"""

from __future__ import annotations

import math
from typing import Iterator, List

import numpy as np

from ..errors import ConfigError
from ..execution import ops
from ..execution.primitives import Barrier, Lock
from ..mem.allocator import Allocator
from ..trace.events import LOAD, STORE
from .base import Workload


class Jacobi(Workload):
    """Jacobi iteration on two ``grid_dim`` x ``grid_dim`` grids.

    Parameters
    ----------
    grid_dim:
        Grid side length; must be divisible by the subgrid decomposition
        (``sqrt(num_procs)`` per side, so ``num_procs`` must be square).
    iterations:
        Number of sweeps (each ends with a barrier + convergence test).
    elem_words:
        Words per element (default 2: the paper's 8-byte doubles).
    padded_barrier:
        Pad the barrier's counter/flag pair to a block boundary (ablation
        knob; the paper's layout is unpadded).
    """

    name = "jacobi"

    def __init__(self, grid_dim: int = 64, iterations: int = 4, *,
                 elem_words: int = 2, padded_barrier: bool = False,
                 num_procs: int = 16, seed: int = 0):
        super().__init__(num_procs=num_procs, seed=seed)
        side = math.isqrt(num_procs)
        if side * side != num_procs:
            raise ConfigError(
                f"jacobi needs a square processor count, got {num_procs}")
        if grid_dim % side:
            raise ConfigError(
                f"grid_dim {grid_dim} not divisible by decomposition side {side}")
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        if elem_words < 1:
            raise ConfigError(f"elem_words must be >= 1, got {elem_words}")
        self.grid_dim = grid_dim
        self.iterations = iterations
        self.elem_words = elem_words
        self.padded_barrier = padded_barrier
        self._side = side

    @property
    def label(self) -> str:
        return f"JACOBI{self.grid_dim}"

    # ------------------------------------------------------------------
    def build_threads(self, allocator: Allocator) -> List:
        dim, ew = self.grid_dim, self.elem_words
        grid_words = dim * dim * ew
        grid_a = allocator.alloc_words("jacobi.gridA", grid_words)
        grid_b = allocator.alloc_words("jacobi.gridB", grid_words)
        barrier = Barrier("jacobi.barrier", allocator, self.num_threads,
                          padded=self.padded_barrier)
        conv_lock = Lock("jacobi.convlock", allocator)
        if self.padded_barrier:
            # The ablation isolates sync-word false sharing: keep every
            # synchronization word in its own block.
            allocator.pad_to(64)
        conv_sum = allocator.alloc_words("jacobi.convsum", 1)

        sub = dim // self._side
        words = np.arange(ew)
        # Per element of a subgrid: load the four neighbours in the source
        # grid (edges clamp; the clamped read still touches src), then
        # store the element in the destination grid.
        sweep_codes = np.tile(np.repeat([LOAD] * 4 + [STORE], ew), sub * sub)

        def sweep_addrs(row0: int, col0: int, src: int, dst: int):
            """One sweep of the subgrid at (row0, col0) as one run's
            addresses, element by element in row-major order."""
            r = np.arange(row0, row0 + sub)[:, None]
            c = np.arange(col0, col0 + sub)[None, :]
            up, down = np.maximum(r - 1, 0), np.minimum(r + 1, dim - 1)
            left, right = np.maximum(c - 1, 0), np.minimum(c + 1, dim - 1)
            elems = np.stack(np.broadcast_arrays(
                src + (up * dim + c) * ew, src + (down * dim + c) * ew,
                src + (r * dim + left) * ew, src + (r * dim + right) * ew,
                dst + (r * dim + c) * ew), axis=-1)
            return (elems[..., None] + words).ravel()

        def thread(tid: int) -> Iterator:
            row0 = (tid // self._side) * sub
            col0 = (tid % self._side) * sub
            # The grids swap roles every iteration: two sweeps in turn.
            sweeps = [sweep_addrs(row0, col0, grid_a.base, grid_b.base),
                      sweep_addrs(row0, col0, grid_b.base, grid_a.base)]
            for it in range(self.iterations):
                yield (ops.RUN, sweep_codes, sweeps[it % 2])
                # Convergence test: fold the local residual into a global
                # accumulator under a lock.
                yield from conv_lock.acquire(tid)
                yield from ops.read_modify_write(conv_sum.base)
                yield from conv_lock.release(tid)
                yield from barrier.wait(tid)
            return

        return [thread(tid) for tid in range(self.num_threads)]

    @property
    def num_threads(self) -> int:
        return self.num_procs
