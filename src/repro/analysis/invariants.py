"""Cross-cutting invariants of the classification and protocols.

These encode the paper's analytic claims (section 2.1, 3.3, 7.0) as
checkable predicates.  They are used both by the test suite (property
tests) and by the benchmarks (shape assertions in EXPERIMENTS.md).

Every function returns a list of human-readable violation strings (empty ==
invariant holds) so benchmarks can report rather than crash.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..classify.compare import ClassificationComparison
from ..classify.dubois import DuboisClassifier
from ..mem.addresses import BlockMap
from ..protocols.results import ProtocolResult
from ..trace.trace import Trace
from .sweep import SweepResult


def check_block_size_monotonicity(sweep: SweepResult) -> List[str]:
    """Section 2.1: essential misses and cold misses cannot increase with

    the block size; neither can CTS+PTS."""
    violations = []
    prev = None
    for bb, bd in zip(sweep.block_sizes, sweep.breakdowns):
        if prev is not None:
            pbb, pbd = prev
            if bd.essential > pbd.essential:
                violations.append(
                    f"essential misses grew {pbd.essential} -> {bd.essential} "
                    f"from B={pbb} to B={bb}")
            if bd.cold > pbd.cold:
                violations.append(
                    f"cold misses grew {pbd.cold} -> {bd.cold} "
                    f"from B={pbb} to B={bb}")
            if bd.cts + bd.pts > pbd.cts + pbd.pts:
                violations.append(
                    f"CTS+PTS grew {pbd.cts + pbd.pts} -> {bd.cts + bd.pts} "
                    f"from B={pbb} to B={bb}")
        prev = (bb, bd)
    return violations


def check_min_is_essential(trace: Trace, min_result: ProtocolResult,
                           *, exact: bool = False) -> List[str]:
    """MIN's misses equal (or, in the documented corner case, undercut)

    the Appendix A essential count; they can never exceed it."""
    bd = DuboisClassifier.classify_trace(
        trace, BlockMap(min_result.block_bytes))
    violations = []
    if min_result.misses > bd.essential:
        violations.append(
            f"MIN misses {min_result.misses} exceed essential {bd.essential}")
    if exact and min_result.misses != bd.essential:
        violations.append(
            f"MIN misses {min_result.misses} != essential {bd.essential}")
    if min_result.breakdown.pfs:
        violations.append(
            f"MIN produced {min_result.breakdown.pfs} false-sharing misses")
    return violations


def check_protocol_ordering(results: Dict[str, ProtocolResult],
                            *, synchronized: bool = True) -> List[str]:
    """MAX >= OTF always; on synchronized traces the delayed protocols and

    WBWI sit between MIN and OTF (send-delay alone may exceed OTF, which
    the paper notes can happen — Figure 2 — so SD is exempt)."""
    violations = []

    def misses(name: str) -> Optional[int]:
        r = results.get(name)
        return None if r is None else r.misses

    otf, mx, mn = misses("OTF"), misses("MAX"), misses("MIN")
    if otf is not None and mx is not None and mx < otf:
        violations.append(f"MAX {mx} < OTF {otf}")
    if synchronized and otf is not None and mn is not None:
        for name in ("RD", "SRD", "WBWI"):
            m = misses(name)
            if m is None:
                continue
            if m > otf:
                violations.append(f"{name} {m} > OTF {otf}")
            if m < mn:
                violations.append(f"{name} {m} < MIN {mn}")
    return violations


def check_eggers_tsm_subset_torrellas(trace: Trace,
                                      block_bytes: int) -> List[str]:
    """Section 3.2: "any true sharing miss in Eggers' classification must

    also be a true sharing miss in Torrellas'."  Taken per miss, with one
    refinement the paper leaves implicit: Torrellas may file the very same
    miss under *cold* when the missed word is a first touch (its cold rule
    is word-granular).  So the checkable implication is

        Eggers-TSM  =>  Torrellas-TSM or Torrellas-CM,

    verified miss-by-miss (both schemes classify the identical miss stream
    at miss time, so labels align by position)."""
    from ..classify.eggers import EggersClassifier
    from ..classify.torrellas import TorrellasClassifier

    bm = BlockMap(block_bytes)
    eg_labels: List[str] = []
    to_labels: List[str] = []
    eg = EggersClassifier(trace.num_procs, bm, labels=eg_labels)
    to = TorrellasClassifier(trace.num_procs, bm, labels=to_labels)
    for proc, op, addr in trace:
        if op in (0, 1):
            eg.access(proc, op, addr)
            to.access(proc, op, addr)
    eg.finish()
    to.finish()
    violations = []
    if len(eg_labels) != len(to_labels):
        return [f"miss streams disagree: {len(eg_labels)} vs {len(to_labels)}"]
    for i, (e, t) in enumerate(zip(eg_labels, to_labels)):
        if e == "TSM" and t == "FSM":
            violations.append(
                f"miss #{i}: Eggers TSM classified FSM by Torrellas")
    return violations


def check_total_miss_agreement(cmp: ClassificationComparison) -> List[str]:
    """All three schemes classify the same set of block misses, so their

    totals coincide."""
    ours, eg, to = cmp.ours.total, cmp.eggers.total, cmp.torrellas.total
    if not ours == eg == to:
        return [f"totals disagree: ours={ours} eggers={eg} torrellas={to}"]
    return []


def check_cold_agreement_ours_eggers(cmp: ClassificationComparison) -> List[str]:
    """Ours and Eggers both define cold misses block-wise: counts match."""
    if cmp.ours.cold != cmp.eggers.cold:
        return [f"COLD-ours {cmp.ours.cold} != COLD-Eggers {cmp.eggers.cold}"]
    return []


def check_all(trace: Trace, sweep: SweepResult,
              comparisons: Sequence[ClassificationComparison]) -> List[str]:
    """Run every classification invariant; returns all violations."""
    violations = list(check_block_size_monotonicity(sweep))
    for cmp in comparisons:
        violations += check_eggers_tsm_subset_torrellas(trace, cmp.block_bytes)
        violations += check_total_miss_agreement(cmp)
        violations += check_cold_agreement_ours_eggers(cmp)
    return violations
