"""Protocol and classifier runs that keep the plain simulators as the oracle.

:func:`repro.protocols.run_protocol` sends a protocol with a vectorized
kernel (OTF, MIN, WBWI, RD, SD, SRD, MAX) to that kernel.  Tests that check a
simulator — hand-worked results, the reference-tracker differential,
engine equivalence — run it through :func:`interpret` instead;
:func:`run_checked` also asserts that the default path agrees, so one
hand-worked expectation pins both the simulator and the kernel.
:func:`run_finite_checked` does the same for a finite-cache cell, checking
the finite kernel directly too.

Likewise ``classify_trace`` feeds a classifier through ``feed_data``
(Eggers' and Torrellas' inlined fast paths); :func:`classify_by_access`
and :func:`compare_by_access` feed the plain per-event ``access()`` API
instead, one event at a time.
"""

from repro.analysis.engine import SharedPrecompute
from repro.classify.compare import ClassificationComparison
from repro.classify.dubois import DuboisClassifier
from repro.classify.eggers import EggersClassifier
from repro.classify.torrellas import TorrellasClassifier
from repro.kernels import run_kernel_cells
from repro.mem import BlockMap
from repro.protocols import (
    FiniteOTFProtocol,
    finite_spec,
    make_protocol,
    run_protocol,
)


def interpret(name, trace, block_bytes):
    """Protocol ``name``'s simulator over ``trace``, never its kernel."""
    return make_protocol(name, trace.num_procs,
                         BlockMap(block_bytes)).run(trace)


def run_checked(name, trace, block_bytes):
    """The simulator's result, once the default path has matched it."""
    expected = interpret(name, trace, block_bytes)
    assert run_protocol(name, trace, block_bytes) == expected, name
    return expected


def run_finite_checked(trace, block_bytes, capacity, ways=None):
    """:class:`FiniteOTFProtocol`'s result, once the finite kernel and the
    default path (the engine's ``finite`` cell, which runs the simulator
    for a fully associative cache) have matched it."""
    block_map = BlockMap(block_bytes)
    expected = FiniteOTFProtocol(trace.num_procs, block_map, capacity,
                                 ways=ways).run(trace)
    spec = finite_spec(capacity, ways)
    (got,) = run_kernel_cells(trace.columns(), trace.num_procs,
                              [("finite", block_bytes, spec)],
                              trace_name=trace.name or "<anonymous>")
    assert got == expected, (capacity, ways)
    got = SharedPrecompute(trace).run_finite(spec, block_bytes)
    assert got == expected, (capacity, ways)
    return expected


def run_all_checked(trace, block_bytes, names):
    """``{name: run_checked(name, ...)}`` in the given order."""
    return {name: run_checked(name, trace, block_bytes) for name in names}


def _feed_access(classifiers, trace):
    for proc, op, addr in trace.data_events():
        for clf in classifiers:
            clf.access(proc, op, addr)


def classify_by_access(cls, trace, block_map):
    """Classifier ``cls``'s breakdown of ``trace``, fed through ``access()``."""
    clf = cls(trace.num_procs, block_map)
    _feed_access((clf,), trace)
    return clf.finish()


def compare_by_access(trace, block_bytes):
    """:func:`repro.classify.compare.compare_classifications`, fed through
    each classifier's ``access()``."""
    block_map = BlockMap(block_bytes)
    classifiers = [cls(trace.num_procs, block_map) for cls in
                   (DuboisClassifier, EggersClassifier, TorrellasClassifier)]
    _feed_access(classifiers, trace)
    ours, eggers, torrellas = (clf.finish() for clf in classifiers)
    return ClassificationComparison(
        trace_name=trace.name or "<anonymous>", block_bytes=block_bytes,
        ours=ours, eggers=eggers, torrellas=torrellas)
