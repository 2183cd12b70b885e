"""Simulated multiprocessor: scheduler, instruction set, sync primitives."""

from .ops import (
    BLOCK,
    MEM,
    RUN,
    SYNC,
    acquire_event,
    block_until,
    load,
    load_region,
    load_words,
    read_modify_write,
    release_event,
    store,
    store_region,
    store_words,
    update_region,
)
from .primitives import Barrier, Flag, Lock, make_flags
from .scheduler import Machine, run_threads

__all__ = [
    "BLOCK",
    "Barrier",
    "Flag",
    "Lock",
    "MEM",
    "Machine",
    "RUN",
    "SYNC",
    "acquire_event",
    "block_until",
    "load",
    "load_region",
    "load_words",
    "make_flags",
    "read_modify_write",
    "release_event",
    "run_threads",
    "store",
    "store_region",
    "store_words",
    "update_region",
]
