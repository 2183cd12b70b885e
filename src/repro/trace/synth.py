"""Synthetic sharing-pattern generators.

Small parametric traces exercising canonical sharing patterns.  They are not
paper benchmarks; they exist to (a) unit-test classifiers and protocols
against analytically known answers and (b) serve as fast workloads in the
examples.

Every generator is deterministic given its ``seed``.
"""

from __future__ import annotations

import random
from typing import List

from ..errors import ConfigError
from .events import Event, LOAD, STORE
from .trace import Trace


def _check(num_procs: int, **positives) -> None:
    if num_procs <= 0:
        raise ConfigError(f"num_procs must be positive, got {num_procs}")
    for name, value in positives.items():
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")


def private_blocks(num_procs: int, words_per_proc: int, iterations: int,
                   *, seed: int = 0) -> Trace:
    """Each processor loops over its own private words: no sharing at all.

    Expected classification: every first touch is a PC miss, everything else
    hits.  Essential misses == cold misses == ``num_procs * words_per_proc``
    at block size 4 (fewer at larger blocks).
    """
    _check(num_procs, words_per_proc=words_per_proc, iterations=iterations)
    events: List[Event] = []
    for _ in range(iterations):
        for p in range(num_procs):
            base = p * words_per_proc
            for w in range(words_per_proc):
                events.append((p, STORE, base + w))
                events.append((p, LOAD, base + w))
    return Trace(events, num_procs, name="synth-private", validate=False)


def producer_consumer(num_procs: int, words: int, rounds: int,
                      *, seed: int = 0) -> Trace:
    """Processor 0 writes a buffer; all others read every word of it.

    Pure true sharing: each consumer takes one essential miss per round per
    block (cold on the first round).  No false sharing at any block size
    because consumers read *every* word.
    """
    _check(num_procs, words=words, rounds=rounds)
    if num_procs < 2:
        raise ConfigError("producer_consumer needs at least 2 processors")
    events: List[Event] = []
    for _ in range(rounds):
        for w in range(words):
            events.append((0, STORE, w))
        for p in range(1, num_procs):
            for w in range(words):
                events.append((p, LOAD, w))
    return Trace(events, num_procs, name="synth-producer-consumer",
                 validate=False)


def false_sharing_pingpong(num_procs: int, rounds: int, *, stride_words: int = 1,
                           seed: int = 0) -> Trace:
    """Each processor repeatedly stores to *its own* word; words are adjacent.

    The canonical false-sharing stressor: with blocks larger than
    ``stride_words`` words, every store invalidates the neighbours' copies
    although no data is ever communicated.  Expected: all coherence misses
    are PFS (useless); the essential miss count is exactly the cold misses.
    """
    _check(num_procs, rounds=rounds, stride_words=stride_words)
    events: List[Event] = []
    for _ in range(rounds):
        for p in range(num_procs):
            addr = p * stride_words
            events.append((p, LOAD, addr))
            events.append((p, STORE, addr))
    return Trace(events, num_procs, name="synth-false-sharing", validate=False)


def migratory(num_procs: int, words: int, rounds: int, *, seed: int = 0) -> Trace:
    """A single record migrates processor to processor (read-modify-write).

    Classic migratory sharing: every hand-off is one essential (PTS) miss
    per block of the record; no false sharing.
    """
    _check(num_procs, words=words, rounds=rounds)
    events: List[Event] = []
    for r in range(rounds):
        p = r % num_procs
        for w in range(words):
            events.append((p, LOAD, w))
        for w in range(words):
            events.append((p, STORE, w))
    return Trace(events, num_procs, name="synth-migratory", validate=False)


def uniform_random(num_procs: int, words: int, num_events: int, *,
                   store_fraction: float = 0.3, seed: int = 0) -> Trace:
    """Uniformly random accesses over a shared array (fuzzing workload)."""
    _check(num_procs, words=words, num_events=num_events)
    if not 0.0 <= store_fraction <= 1.0:
        raise ConfigError(f"store_fraction must be in [0,1], got {store_fraction}")
    rng = random.Random(seed)
    events: List[Event] = []
    for _ in range(num_events):
        p = rng.randrange(num_procs)
        op = STORE if rng.random() < store_fraction else LOAD
        events.append((p, op, rng.randrange(words)))
    return Trace(events, num_procs, name="synth-uniform", validate=False)


def read_mostly(num_procs: int, words: int, rounds: int, *,
                writer: int = 0, writes_per_round: int = 1, seed: int = 0) -> Trace:
    """Widely read-shared data with occasional updates by one writer.

    Expected: bursts of PTS misses (one per reader per update) over a
    baseline of hits; no false sharing at block sizes <= the update stride.
    """
    _check(num_procs, words=words, rounds=rounds,
           writes_per_round=writes_per_round)
    rng = random.Random(seed)
    events: List[Event] = []
    for _ in range(rounds):
        for p in range(num_procs):
            if p == writer:
                continue
            for w in range(words):
                events.append((p, LOAD, w))
        for _ in range(writes_per_round):
            events.append((writer, STORE, rng.randrange(words)))
    return Trace(events, num_procs, name="synth-read-mostly", validate=False)
