"""Workload framework: parallel-program generators producing traces.

The paper traces four benchmarks (MP3D, WATER, LU, JACOBI) on a 16-processor
machine with the CacheMire test bench.  We cannot run the original binaries,
so each workload here is a from-scratch *generator*: a parallel program
written against :mod:`repro.execution` whose per-processor threads emit the
same sharing pattern — the data-structure byte layouts, the assignment of
objects to processors, and the ANL-macro synchronization the paper's
section 6 uses to explain every feature of its Figure 5 curves.

Every workload is deterministic given its configuration (including the
seed), and every generated trace is race-free under the happens-before
checker (asserted by the integration tests), as the paper requires for the
delayed protocols.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

from ..errors import ConfigError
from ..execution.scheduler import Machine
from ..mem.allocator import Allocator
from ..obs.recorder import get_recorder
from ..trace.trace import Trace


class Workload(ABC):
    """A parallel program that generates a reference trace.

    Subclasses set :attr:`name`, validate their configuration in
    ``__init__`` and implement :meth:`build_threads`, which allocates the
    program's data from the given allocator and returns one generator per
    processor.
    """

    #: Workload family name ("mp3d", "water", "lu", "jacobi", ...).
    name: str = "?"

    def __init__(self, num_procs: int = 16, seed: int = 0):
        if num_procs <= 0:
            raise ConfigError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self.seed = seed

    @abstractmethod
    def build_threads(self, allocator: Allocator) -> List:
        """Allocate program data and return one thread generator per processor."""

    def describe_config(self) -> Dict:
        """Configuration dictionary stored in the trace metadata."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    @property
    def label(self) -> str:
        """Display label, e.g. ``"MP3D200"`` (subclasses refine)."""
        return self.name.upper()

    def generate(self, *, order: str = "rotate") -> Trace:
        """Run the program on the simulated machine and return its trace.

        The trace metadata records the configuration, the simulated
        data-set size (Table 2's DATA SET column) and the cycle count the
        speedup column derives from.  A recorded run times it as one
        ``trace.generate`` span.
        """
        with get_recorder().span("trace.generate", trace=self.label) as sp:
            allocator = Allocator()
            threads = self.build_threads(allocator)
            machine = Machine(self.num_procs, order=order, seed=self.seed)
            meta = {"workload": self.name,
                    "config": self.describe_config(),
                    "data_set_bytes": allocator.used_bytes,
                    # Top-level data-structure regions, so analyses can
                    # attribute misses to the structures causing them
                    # (see repro.analysis.attribution).
                    "regions": [[r.name, r.base, r.words]
                                for r in allocator.regions]}
            trace = machine.run(threads, name=self.label, meta=meta)
            sp.set(events=len(trace))
        return trace


def split_round_robin(count: int, num_procs: int, proc: int) -> range:
    """Indices owned by ``proc`` under fine interleaving (i % P == proc).

    The paper's LU columns and MP3D particles are distributed this way
    ("statically assigned to processors in a finely interleaved fashion").
    """
    return range(proc, count, num_procs)
