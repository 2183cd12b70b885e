"""MP3D — hypersonic rarefied-flow particle simulator (paper sections 5.0/6.0).

"MP3D is a 3-dimensional particle simulator ...  In each iteration (a time
step) each processor updates the positions and velocities of each of its
particles.  When a collision occurs, the processor updates the attributes
of the particle colliding with its own.  ...  the locking option was
switched on, to eliminate data races."

Sharing structure reproduced here (paper section 6.0):

* particle records of exactly 36 bytes, finely interleaved among
  processors and packed contiguously — false sharing appears at 8-byte
  blocks because consecutive particles belong to different processors;
* space-cell records of exactly 48 bytes — additional false sharing for
  blocks larger than 16 bytes;
* collisions update five words (20 bytes) of each colliding particle, and
  collide particles that meet in the same space cell — the true-sharing
  component that "decreases dramatically up to 32 bytes";
* one ANL spin lock per space cell (the locking option), the lock words
  packed adjacently — sync-word false sharing at B=8;
* a barrier between time steps.

Cell assignment and collision partners are drawn from a seeded RNG at
generator-build time, so each trace is deterministic and the collision
writes stay inside the cell-lock critical sections (race-free).
"""

from __future__ import annotations

import random
from typing import Iterator, List

import numpy as np

from ..errors import ConfigError
from ..execution import ops
from ..execution.primitives import Barrier, Lock
from ..mem.allocator import Allocator
from ..mem.layout import PARTICLE, SPACE_CELL
from ..trace.events import LOAD, STORE
from .base import Workload, split_round_robin


class MP3D(Workload):
    """MP3D with ``num_particles`` particles over ``num_cells`` space cells.

    Parameters
    ----------
    num_particles:
        Particle count (paper: 1,000 and 10,000; scaled defaults here).
    num_cells:
        Space-cell count; particles are (re)assigned to cells each step.
    time_steps:
        Number of simulated time steps (barrier-separated).
    collision_rate:
        Probability that a particle attempts a collision in a step.
    """

    name = "mp3d"

    def __init__(self, num_particles: int = 200, num_cells: int = 64,
                 time_steps: int = 10, *, collision_rate: float = 0.2,
                 num_procs: int = 16, seed: int = 0):
        super().__init__(num_procs=num_procs, seed=seed)
        if num_particles < num_procs:
            raise ConfigError(
                f"need at least one particle per processor "
                f"({num_particles} < {num_procs})")
        if num_cells < 1:
            raise ConfigError(f"num_cells must be >= 1, got {num_cells}")
        if time_steps < 1:
            raise ConfigError(f"time_steps must be >= 1, got {time_steps}")
        if not 0.0 <= collision_rate <= 1.0:
            raise ConfigError(
                f"collision_rate must be in [0,1], got {collision_rate}")
        self.num_particles = num_particles
        self.num_cells = num_cells
        self.time_steps = time_steps
        self.collision_rate = collision_rate

    @property
    def label(self) -> str:
        return f"MP3D{self.num_particles}"

    # ------------------------------------------------------------------
    def build_threads(self, allocator: Allocator) -> List:
        particles = allocator.alloc_array("mp3d.particle", self.num_particles,
                                          PARTICLE.nbytes)
        cells = allocator.alloc_array("mp3d.cell", self.num_cells,
                                      SPACE_CELL.nbytes)
        cell_locks = [Lock(f"mp3d.celllock[{c}]", allocator)
                      for c in range(self.num_cells)]
        barrier = Barrier("mp3d.barrier", allocator, self.num_procs)

        # Deterministic "physics": cell of each particle per step, and the
        # collision schedule.  Collisions pair particles sharing a cell in
        # that step, so both updates fall under one cell lock.
        rng = random.Random(self.seed)
        cell_of = [[rng.randrange(self.num_cells)
                    for _ in range(self.num_particles)]
                   for _ in range(self.time_steps)]
        partners: List[dict] = []
        mates_by_cell: List[dict] = []
        for step in range(self.time_steps):
            by_cell: dict = {}
            for p, c in enumerate(cell_of[step]):
                by_cell.setdefault(c, []).append(p)
            mates_by_cell.append(by_cell)
            chosen = {}
            for p in range(self.num_particles):
                if rng.random() >= self.collision_rate:
                    continue
                mates = by_cell[cell_of[step][p]]
                if len(mates) < 2:
                    continue
                q = rng.choice(mates)
                if q != p:
                    chosen[p] = q
            partners.append(chosen)

        particle_base = [region.base for region in particles]
        cell_base = [region.base for region in cells]

        # A particle's lock-held body is one run of parts, each the words
        # of one record's fields: their offsets from the record's base and
        # their opcodes.
        def words(layout, *fields) -> np.ndarray:
            return np.concatenate([
                layout.offset_words(f) + np.arange(layout.field(f).words)
                for f in fields])

        def access(code: int, offsets: np.ndarray):
            return offsets, [code] * len(offsets)

        def read_modify_write(offsets: np.ndarray):
            return np.repeat(offsets, 2), [LOAD, STORE] * len(offsets)

        def join(parts: list):
            return (np.concatenate([offsets for offsets, _ in parts]),
                    [code for _, codes in parts for code in codes])

        # Advance a particle: read pos+vel, write pos.
        move = join([access(LOAD, words(PARTICLE, "pos", "vel")),
                     access(STORE, words(PARTICLE, "pos"))])
        # Collision-candidate check: a read-only scan of the positions and
        # velocities of a few particles sharing the cell (the read-mostly
        # sharing that makes MP3D's reads outnumber its writes in Table 2).
        mate = access(LOAD, words(PARTICLE, "pos", "vel"))
        cell_index = access(STORE, words(PARTICLE, "cell"))
        # Fold a particle into its cell's aggregates: the count and the
        # first words of momentum and energy.
        aggregate = read_modify_write(np.array([
            SPACE_CELL.offset_words(f)
            for f in ("count", "momentum", "energy")]))
        # Collision update: five words (vel + scratch = 20 bytes).
        collide = read_modify_write(words(PARTICLE, "vel", "scratch"))

        def shape(mates: int, collided: bool):
            """The run's offsets, opcodes and part lengths."""
            parts = ([move] + [mate] * mates + [cell_index, aggregate]
                     + [collide] * (2 * collided))
            offsets, codes = join(parts)
            return offsets, np.array(codes), np.array([len(o) for o, _ in parts])

        # By (cell mates scanned, collided).
        shapes = {(mates, collided): shape(mates, collided)
                  for mates in range(4) for collided in (False, True)}

        def thread(tid: int) -> Iterator:
            mine = list(split_round_robin(self.num_particles, self.num_procs, tid))
            for step in range(self.time_steps):
                for p in mine:
                    c = cell_of[step][p]
                    lock = cell_locks[c]
                    yield from lock.acquire(tid)
                    # The lock-held body as one run: move, scan up to three
                    # cell mates, store the cell index, update the cell's
                    # aggregates and, on a collision, both particles.
                    mates = [q for q in mates_by_cell[step].get(c, ())
                             if q != p][:3]
                    bases = [particle_base[p]]
                    bases += [particle_base[q] for q in mates]
                    bases += [particle_base[p], cell_base[c]]
                    q = partners[step].get(p)
                    if q is not None:
                        # Both particles share cell c this step, so the one
                        # lock we hold protects both updates.
                        bases += [particle_base[p], particle_base[q]]
                    offsets, codes, lengths = shapes[len(mates), q is not None]
                    yield (ops.RUN, codes, np.repeat(bases, lengths) + offsets)
                    yield from lock.release(tid)
                yield from barrier.wait(tid)
            return

        return [thread(tid) for tid in range(self.num_procs)]
