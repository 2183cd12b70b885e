"""WATER — N-body molecular dynamics of liquid water (paper sections 5.0/6.0).

"WATER performs an N-body molecular dynamics simulation ...  each processor
updates its objects in each iteration (time step).  Interactions of its
molecules with other molecules involve modifying the data structures of the
other molecules."

Sharing structure reproduced here (paper section 6.0):

* molecule records of exactly 680 bytes, consecutively allocated with
  adjacent molecules owned by different processors — false sharing grows
  as the block size approaches the record size;
* the inter-molecular force computation modifies nine double words
  (72 bytes — the ``forces`` field) of the *other* molecule's record, under
  that molecule's lock, giving the true-sharing component that "decreases
  rapidly up until a block size of 128 bytes";
* per-molecule ANL locks packed adjacently (sync-word sharing at B=8);
* barriers between the intra-molecular, inter-molecular and integration
  phases of each time step.

Each molecule interacts with the following ``n/2`` molecules (the standard
WATER half-shell scheme), so with molecules interleaved over processors
most interactions are cross-processor.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from ..errors import ConfigError
from ..execution import ops
from ..execution.primitives import Barrier, Lock
from ..mem.allocator import Allocator
from ..mem.layout import WATER_MOLECULE
from ..trace.events import LOAD, STORE
from .base import Workload, split_round_robin


class Water(Workload):
    """WATER with ``num_molecules`` molecules.

    Parameters
    ----------
    num_molecules:
        Molecule count (paper: 16 and 288; keep small — work per step is
        quadratic).
    time_steps:
        Number of time steps.
    """

    name = "water"

    def __init__(self, num_molecules: int = 16, time_steps: int = 3, *,
                 num_procs: int = 16, seed: int = 0):
        super().__init__(num_procs=num_procs, seed=seed)
        if num_molecules < 2:
            raise ConfigError(
                f"need at least 2 molecules, got {num_molecules}")
        if time_steps < 1:
            raise ConfigError(f"time_steps must be >= 1, got {time_steps}")
        self.num_molecules = num_molecules
        self.time_steps = time_steps

    @property
    def label(self) -> str:
        return f"WATER{self.num_molecules}"

    # ------------------------------------------------------------------
    def build_threads(self, allocator: Allocator) -> List:
        n = self.num_molecules
        molecules = allocator.alloc_array("water.molecule", n,
                                          WATER_MOLECULE.nbytes)
        locks = [Lock(f"water.mollock[{m}]", allocator) for m in range(n)]
        barrier = Barrier("water.barrier", allocator, self.num_procs)

        # Every molecule's field word addresses, one row per molecule.
        bases = np.array([region.base for region in molecules])

        def field(name: str) -> np.ndarray:
            offset = WATER_MOLECULE.offset_words(name)
            words = WATER_MOLECULE.field(name).words
            return bases[:, None] + offset + np.arange(words)

        def phase(*parts):
            """A phase's per-molecule runs: the fields' words side by side,
            each field's opcode repeated over its words."""
            codes = np.concatenate([np.full(words.shape[1], code)
                                    for code, words in parts])
            return codes, np.hstack([words for _, words in parts])

        forces, positions = field("forces"), field("positions")
        velocities = field("velocities")
        # Intra-molecular phase (owner only).
        intra_codes, intra = phase((LOAD, positions), (LOAD, velocities),
                                   (STORE, field("accels")))
        # Inter-molecular phase: load my positions, the other's positions
        # and velocities; then, under both locks, read-modify-write both
        # force fields word by word.
        pos_vel = np.hstack((positions, velocities))
        force_rmw = np.repeat(forces, 2, axis=1)
        rmw_codes = np.tile([LOAD, STORE], 2 * forces.shape[1])
        # Integration phase: fold forces into positions (owner only).
        integrate_codes, integrate = phase(
            (LOAD, forces), (STORE, positions), (STORE, field("energy")))

        half = n // 2
        shifts = np.arange(1, half + 1)

        def interact(m: int, tid: int) -> Iterator:
            """Molecule m's pair forces with the following ``n/2``
            molecules: read both, update both force fields."""
            others = (m + shifts) % n
            loads = np.hstack((np.broadcast_to(positions[m],
                                               (half, positions.shape[1])),
                               pos_vel[others]))
            rmws = np.hstack((np.broadcast_to(force_rmw[m],
                                              (half, force_rmw.shape[1])),
                              force_rmw[others]))
            for j, other in enumerate(others.tolist()):
                yield (ops.RUN, LOAD, loads[j])
                first, second = (m, other) if m < other else (other, m)
                yield from locks[first].acquire(tid)
                yield from locks[second].acquire(tid)
                yield (ops.RUN, rmw_codes, rmws[j])
                yield from locks[second].release(tid)
                yield from locks[first].release(tid)

        def thread(tid: int) -> Iterator:
            mine = list(split_round_robin(n, self.num_procs, tid))
            for _ in range(self.time_steps):
                for m in mine:
                    yield (ops.RUN, intra_codes, intra[m])
                yield from barrier.wait(tid)
                for m in mine:
                    yield from interact(m, tid)
                yield from barrier.wait(tid)
                for m in mine:
                    yield (ops.RUN, integrate_codes, integrate[m])
                yield from barrier.wait(tid)
            return

        return [thread(tid) for tid in range(self.num_procs)]
