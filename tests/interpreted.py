"""Protocol runs that keep the simulators under test as the oracle.

:func:`repro.protocols.run_protocol` sends a protocol with a vectorized
kernel (OTF, MIN, WBWI, RD, MAX) to that kernel.  Tests that check a
simulator — hand-worked results, the reference-tracker differential,
engine equivalence — run it through :func:`interpret` instead;
:func:`run_checked` also asserts that the default path agrees, so one
hand-worked expectation pins both the simulator and the kernel.
"""

from repro.mem import BlockMap
from repro.protocols import make_protocol, run_protocol


def interpret(name, trace, block_bytes):
    """Protocol ``name``'s simulator over ``trace``, never its kernel."""
    return make_protocol(name, trace.num_procs,
                         BlockMap(block_bytes)).run(trace)


def run_checked(name, trace, block_bytes):
    """The simulator's result, once the default path has matched it."""
    expected = interpret(name, trace, block_bytes)
    assert run_protocol(name, trace, block_bytes) == expected, name
    return expected


def run_all_checked(trace, block_bytes, names):
    """``{name: run_checked(name, ...)}`` in the given order."""
    return {name: run_checked(name, trace, block_bytes) for name in names}
