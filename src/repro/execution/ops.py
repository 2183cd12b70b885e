"""The tiny instruction set interpreted by the simulated multiprocessor.

Workload *threads* are Python generators.  Each ``yield`` hands the
scheduler one operation tuple:

``("mem", op, addr)``
    Perform a data reference (``op`` is LOAD or STORE).  Costs one cycle.
``("sync", op, addr)``
    Emit a synchronization event (``op`` is ACQUIRE or RELEASE).  Costs one
    cycle.
``("run", ops, addrs)``
    Perform ``len(addrs)`` data references, exactly as that many
    consecutive ``("mem", op, addr)`` yields would: one per cycle, and the
    thread is not resumed until the run is used up.  ``addrs`` is a range,
    a list or a 1-D integer NumPy array; ``ops`` is one opcode (LOAD or
    STORE) for all of them or a sequence of opcodes as long as ``addrs``.
    The run is validated once when it is yielded; an empty run costs no
    cycle.  Yielded at cycle ``c``, reference ``i`` is emitted at cycle
    ``c + i``: the scheduler records the run and its first cycle and
    places its references in the trace in blocks (see the stamped runs
    of :mod:`repro.execution.scheduler`), so a run costs a few NumPy
    steps, not a generator resumption per reference.  LU's and Jacobi's
    loop nests, Water's per-molecule and per-pair phases and MP3D's
    lock-held particle updates are runs.
``("block", predicate)``
    Do not proceed until ``predicate()`` is true.  The predicate must be
    pure: it reads shared state and changes none.  Blocked cycles cost time
    (they extend the execution) but emit no events — the simulator models
    waiting without flooding the trace with spin loads, a deliberate and
    documented deviation from a raw hardware trace (see
    :mod:`repro.execution.primitives`).

Helper constructors below keep workload code readable.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Tuple

from ..mem.allocator import Region
from ..trace.events import ACQUIRE, LOAD, RELEASE, STORE

MEM = "mem"
SYNC = "sync"
RUN = "run"
BLOCK = "block"

Op = Tuple


def load(addr: int) -> Op:
    """One-word load."""
    return (MEM, LOAD, addr)


def store(addr: int) -> Op:
    """One-word store."""
    return (MEM, STORE, addr)


def acquire_event(addr: int) -> Op:
    """Raw ACQUIRE event (used by the sync primitives)."""
    return (SYNC, ACQUIRE, addr)


def release_event(addr: int) -> Op:
    """Raw RELEASE event (used by the sync primitives)."""
    return (SYNC, RELEASE, addr)


def block_until(predicate: Callable[[], bool]) -> Op:
    """Stall the processor until ``predicate()`` becomes true."""
    return (BLOCK, predicate)


# ----------------------------------------------------------------------
# bulk access helpers over words and regions
# ----------------------------------------------------------------------
def load_words(addrs: Iterable[int]) -> Iterator[Op]:
    """Load every word address in ``addrs``."""
    for a in addrs:
        yield (MEM, LOAD, a)


def store_words(addrs: Iterable[int]) -> Iterator[Op]:
    """Store every word address in ``addrs``."""
    for a in addrs:
        yield (MEM, STORE, a)


def load_region(region: Region) -> Iterator[Op]:
    """Load every word of a region."""
    return load_words(range(region.base, region.end))


def store_region(region: Region) -> Iterator[Op]:
    """Store every word of a region."""
    return store_words(range(region.base, region.end))


def read_modify_write(addr: int) -> Iterator[Op]:
    """Load then store one word (e.g. ``x += ...``)."""
    yield (MEM, LOAD, addr)
    yield (MEM, STORE, addr)


def update_region(region: Region) -> Iterator[Op]:
    """Read-modify-write every word of a region."""
    for a in range(region.base, region.end):
        yield (MEM, LOAD, a)
        yield (MEM, STORE, a)
