"""Vectorized kernel registry and execution-path resolution.

A *kernel* computes one grid cell's counters as NumPy reductions over
columnar rows instead of a per-event Python loop (10×+ single-core on
the cells that have one; see BENCH_throughput.json).  The streaming
implementations stay authoritative: they are the differential-test
oracle — exactly the role ``ReferenceDuboisClassifier`` plays for the
optimized Dubois classifier — and the ``--kernel interpreted`` path.

Resolution contract (``--kernel {auto,vectorized,interpreted}``):

* ``interpreted`` — every cell runs the streaming oracle;
* ``vectorized`` — cells with a kernel run it, the rest *fall back* to
  the oracle (the classifiers and the seven infinite-cache protocols
  have kernels, and so do finite caches of more than one set, through
  :func:`run_finite_kernel` — OTF's misses plus one compact LRU pass per
  (processor, set), see :mod:`repro.kernels.finite`.  A fully
  associative cache has none: it is one set, so its kernel batch would
  be the whole trace); requires NumPy;
* ``auto`` (default) — ``vectorized`` when NumPy is importable, else
  ``interpreted``.

Checkpoint journals bind the *effective* mode — ``auto`` resolved
against NumPy availability via :func:`effective_kernel_mode` (see
:func:`repro.runtime.checkpoint.journal_digest`) — so ``--resume`` can
never mix results computed under different execution paths, even when
both runs said ``auto``.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..protocols.finite import cache_geometry, parse_finite_spec

__all__ = ["KERNEL_MODES", "VECTORIZED_AVAILABLE", "CLASSIFIER_KERNELS",
           "PROTOCOL_KERNELS", "KernelContext", "run_protocol_kernel",
           "run_finite_kernel",
           "validate_kernel_mode", "has_kernel", "resolve_kernel",
           "effective_kernel_mode"]

#: Legal ``--kernel`` settings.
KERNEL_MODES = ("auto", "vectorized", "interpreted")

try:
    import numpy as _np  # noqa: F401
    VECTORIZED_AVAILABLE = True
except ImportError:  # pragma: no cover - the tree is tested with numpy
    VECTORIZED_AVAILABLE = False

if VECTORIZED_AVAILABLE:
    from .classifiers import (
        KernelContext,
        dubois_kernel,
        eggers_kernel,
        torrellas_kernel,
    )
    from .finite import run_finite_kernel
    from .protocols import (
        max_kernel,
        min_kernel,
        otf_kernel,
        rd_kernel,
        run_protocol_kernel,
        sd_kernel,
        srd_kernel,
        wbwi_kernel,
    )

    #: ``{classifier name: kernel}`` for classify cells (compare cells
    #: use all three).
    CLASSIFIER_KERNELS = {"dubois": dubois_kernel,
                          "eggers": eggers_kernel,
                          "torrellas": torrellas_kernel}
    #: ``{protocol name: kernel}`` for protocol cells, each run through
    #: :func:`run_protocol_kernel` (which looks the kernel up here per
    #: call).
    PROTOCOL_KERNELS = {"OTF": otf_kernel, "MIN": min_kernel,
                        "WBWI": wbwi_kernel, "RD": rd_kernel,
                        "SD": sd_kernel, "SRD": srd_kernel,
                        "MAX": max_kernel}
else:  # pragma: no cover
    KernelContext = run_protocol_kernel = run_finite_kernel = None
    CLASSIFIER_KERNELS = {}
    PROTOCOL_KERNELS = {}


def validate_kernel_mode(mode: str) -> str:
    """Validate a ``--kernel`` setting, returning it unchanged."""
    if mode not in KERNEL_MODES:
        raise ConfigError(
            f"unknown kernel mode {mode!r}; known: {list(KERNEL_MODES)}")
    if mode == "vectorized" and not VECTORIZED_AVAILABLE:
        raise ConfigError(
            "--kernel vectorized requires NumPy, which is not importable; "
            "use --kernel interpreted (or auto)")
    return mode


def effective_kernel_mode(mode: str) -> str:
    """Resolve ``auto`` to the execution-path family this process takes.

    Returns ``"vectorized"`` or ``"interpreted"`` — the string checkpoint
    journals bind, so two ``auto`` runs on machines that resolve
    differently can never share a journal.
    """
    validate_kernel_mode(mode)
    if mode == "interpreted" or not VECTORIZED_AVAILABLE:
        return "interpreted"
    return "vectorized"


def has_kernel(kind: str, which) -> bool:
    """True when a vectorized kernel exists for one cell kind.

    ``kind`` is a grid-cell kind (shard subtask kinds resolve like their
    parent: a shard's rows feed the same kernel).
    """
    if kind.endswith("-shard"):
        kind = kind[:-len("-shard")]
    if kind == "classify":
        return which in CLASSIFIER_KERNELS
    if kind == "compare":
        return bool(CLASSIFIER_KERNELS)
    if kind == "protocol":
        return which in PROTOCOL_KERNELS
    if kind == "finite":  # batched by set: one set is the whole trace
        num_sets, _ = cache_geometry(*parse_finite_spec(which))
        return VECTORIZED_AVAILABLE and num_sets > 1
    return False


def resolve_kernel(mode: str, kind: str, which) -> str:
    """The execution path one cell takes under a kernel mode.

    Returns ``"vectorized"`` or ``"interpreted"``.  Both ``auto`` and
    ``vectorized`` fall back to the oracle for cells without a kernel;
    they differ only in that ``vectorized`` refuses to run without NumPy
    while ``auto`` degrades silently.
    """
    validate_kernel_mode(mode)
    if mode == "interpreted" or not VECTORIZED_AVAILABLE:
        return "interpreted"
    return "vectorized" if has_kernel(kind, which) else "interpreted"
