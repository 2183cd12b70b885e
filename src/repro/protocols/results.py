"""Result and counter types for protocol simulations."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Sequence

from ..classify.breakdown import DuboisBreakdown
from ..errors import ProtocolError


@dataclass
class Counters:
    """Mutable event counters accumulated during a protocol run.

    Not every field is meaningful for every protocol (e.g. only MIN counts
    ``write_throughs``); unused fields stay zero.
    """

    #: Block fetches (== total misses, plus re-fetches after replacement).
    fetches: int = 0
    #: Block invalidations applied to a cache (copies destroyed).
    invalidations_applied: int = 0
    #: Invalidation messages sent (block granularity; one per remote copy).
    invalidations_sent: int = 0
    #: Word-invalidation messages (MIN/WBWI: one per word per remote copy).
    word_invalidations: int = 0
    #: Words written through to memory (MIN only).
    write_throughs: int = 0
    #: Misses forced purely by ownership (store to a non-owned block whose
    #: local invalidation buffer is non-empty — section 2.2's "cost of
    #: maintaining ownership").
    ownership_misses: int = 0
    #: Stores buffered at the sender (SD/SRD).
    stores_buffered: int = 0
    #: Buffered stores that were combined with an earlier buffered store to
    #: the same block (SD/SRD send combining).
    stores_combined: int = 0
    #: Ownership (block) transfers.
    ownership_transfers: int = 0
    #: Cache replacements (finite-cache extension only).
    replacements: int = 0

    def as_dict(self) -> Dict[str, int]:
        """All counters by field name.

        Derived from ``dataclasses.fields`` so a counter added later can
        never silently vanish from reports, checkpoints or merges.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def merge(cls, parts: Iterable["Counters"]) -> "Counters":
        """Sum counters across block shards (or any disjoint partition).

        Every field is a count of events attributable to a single
        (processor, block) pair — MIN's ``write_throughs`` count stores
        (one block each), SD/SRD's ``stores_buffered``/``stores_combined``
        count per-(proc, block) buffer entries, the finite cache's
        ``replacements`` count per-(proc, set) evictions — so summing
        per-shard counters reproduces the whole-trace counters exactly.
        Per-proc store-buffer *occupancy* across blocks is not a counter,
        and a counter that depended on it could not be merged this way.
        """
        total = cls()
        names = [f.name for f in fields(cls)]
        for part in parts:
            for name in names:
                value = getattr(part, name)
                if not isinstance(value, int):
                    raise ProtocolError(
                        f"counter {name!r} is not an int and cannot be "
                        f"shard-merged: {value!r}")
                setattr(total, name, getattr(total, name) + value)
        return total


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of running one protocol over one trace at one block size."""

    protocol: str
    trace_name: str
    block_bytes: int
    num_procs: int
    #: Per-class miss decomposition (PC/CTS/CFS/PTS/PFS) with data_refs.
    breakdown: DuboisBreakdown
    counters: Counters
    #: Replacement misses (finite-cache runs; 0 for infinite caches).
    replacement_misses: int = 0

    @property
    def misses(self) -> int:
        """Total misses (coherence + cold + replacement)."""
        return self.breakdown.total + self.replacement_misses

    @property
    def miss_rate(self) -> float:
        """Total miss rate in percent of data references."""
        refs = self.breakdown.data_refs
        return 100.0 * self.misses / refs if refs else 0.0

    @property
    def cold_rate(self) -> float:
        return self.breakdown.rate(self.breakdown.cold)

    @property
    def pts_rate(self) -> float:
        return self.breakdown.rate(self.breakdown.pts)

    @property
    def pfs_rate(self) -> float:
        return self.breakdown.rate(self.breakdown.pfs)

    def fig6_bars(self) -> Dict[str, float]:
        """The TRUE/COLD/FALSE/TOTAL series of the paper's Figure 6."""
        return {"TRUE": self.pts_rate, "COLD": self.cold_rate,
                "FALSE": self.pfs_rate, "TOTAL": self.miss_rate}

    def describe(self) -> str:
        b = self.breakdown
        extra = ""
        if self.replacement_misses:
            extra = f" repl={self.replacement_misses}"
        return (f"{self.protocol:5s} B={self.block_bytes:<5d} "
                f"miss_rate={self.miss_rate:6.2f}%  misses={self.misses}"
                f" (cold={b.cold} PTS={b.pts} PFS={b.pfs}{extra})")


def merge_shard_results(parts: Sequence[ProtocolResult]) -> ProtocolResult:
    """Merge per-shard partial results into one whole-trace result.

    Valid when the parts come from a disjoint partition of the trace's
    blocks (or, for a finite cache, of its sets), each run with every
    sync event of the trace: lifetimes, miss classes and every counter
    are per-(block, processor), and sync events act on every part alike
    by order, so the merged result is bit-identical to a single
    whole-trace run.  All parts must describe
    the same protocol, trace, block size and processor count.
    """
    if not parts:
        raise ProtocolError("cannot merge an empty shard result list")
    first = parts[0]
    for part in parts[1:]:
        for attr in ("protocol", "trace_name", "block_bytes", "num_procs"):
            if getattr(part, attr) != getattr(first, attr):
                raise ProtocolError(
                    f"shard results disagree on {attr}: "
                    f"{getattr(first, attr)!r} vs {getattr(part, attr)!r}")
    breakdown = first.breakdown
    for part in parts[1:]:
        breakdown = breakdown + part.breakdown
    return ProtocolResult(
        protocol=first.protocol,
        trace_name=first.trace_name,
        block_bytes=first.block_bytes,
        num_procs=first.num_procs,
        breakdown=breakdown,
        counters=Counters.merge(p.counters for p in parts),
        replacement_misses=sum(p.replacement_misses for p in parts),
    )
