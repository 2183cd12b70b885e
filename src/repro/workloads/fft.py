"""FFT — staged radix-2 transform (supplementary workload).

Like MATMUL, a non-iterative algorithm the paper cites (section 3.1) as
breaking Torrellas' first-touch cold-miss rule.  Also a useful stress for
the delayed protocols: each butterfly stage reads a partner element at a
stride that halves every stage, so the sharing pattern sweeps from
long-range (all cross-processor) to neighbour-range (mostly local, block
false sharing at partition edges).

Race-freedom uses the Jacobi trick: stages alternate between two arrays
(read source, write destination) with a barrier per stage.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from ..errors import ConfigError
from ..execution import ops
from ..execution.primitives import Barrier
from ..mem.allocator import Allocator
from ..mem.addresses import is_power_of_two
from ..trace.events import LOAD, STORE
from .base import Workload


class FFT(Workload):
    """Radix-2 FFT over ``n`` complex points (``n`` a power of two).

    Points are 4 words (two double-precision components).  Point ``i`` is
    owned by processor ``i // (n / num_procs)`` (contiguous chunks).
    """

    name = "fft"

    def __init__(self, n: int = 256, *, num_procs: int = 16, seed: int = 0):
        super().__init__(num_procs=num_procs, seed=seed)
        if not is_power_of_two(n):
            raise ConfigError(f"FFT size must be a power of two, got {n}")
        if n < num_procs:
            raise ConfigError(f"FFT size {n} smaller than {num_procs} processors")
        self.n = n

    @property
    def label(self) -> str:
        return f"FFT{self.n}"

    ELEM_WORDS = 4  # complex double: re + im

    def build_threads(self, allocator: Allocator) -> List:
        n, ew = self.n, self.ELEM_WORDS
        src = allocator.alloc_words("fft.src", n * ew)
        dst = allocator.alloc_words("fft.dst", n * ew)
        barrier = Barrier("fft.barrier", allocator, self.num_procs)
        bases = (src.base, dst.base)
        chunk = n // self.num_procs
        stages = n.bit_length() - 1

        words = np.arange(ew)
        # A stage's butterflies as one run: per owned point, load it and
        # its partner from the source array, store it in the destination.
        stage_codes = np.tile(np.repeat([LOAD, LOAD, STORE], ew), chunk)

        def thread(tid: int) -> Iterator:
            lo, hi = tid * chunk, (tid + 1) * chunk
            # Initialization: each processor fills its own chunk.
            yield (ops.RUN, STORE, range(src.base + lo * ew,
                                         src.base + hi * ew))
            yield from barrier.wait(tid)
            mine = np.arange(lo, hi)
            for stage in range(stages):
                rd = bases[stage % 2]
                wr = bases[1 - stage % 2]
                stride = n >> (stage + 1)
                points = np.stack((rd + mine * ew, rd + (mine ^ stride) * ew,
                                   wr + mine * ew), axis=1)
                yield (ops.RUN, stage_codes, (points[..., None] + words).ravel())
                yield from barrier.wait(tid)
            return

        return [thread(tid) for tid in range(self.num_procs)]
