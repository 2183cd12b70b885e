"""Feeding the streaming classifiers a trace's data rows.

The one driver loop of all three classifiers' ``classify_trace`` and of
:func:`~repro.classify.compare.compare_classifications`.
"""

from __future__ import annotations

from ..mem.addresses import BlockMap
from ..runtime import signals
from ..trace.trace import Trace


def feed_trace(trace: Trace, block_map: BlockMap, *classifiers) -> None:
    """Feed every classifier each LOAD/STORE row of ``trace``.

    The data rows are cut into slices of at most
    :data:`~repro.runtime.signals.HEARTBEAT_CHUNK`; each slice is decoded
    once to plain-int lists (block ids by one vectorized shift) and fed
    to every classifier's ``feed_data``, so the trace is never decoded
    whole.  ``feed_data`` is re-entrant (its cursors live on the
    classifier), so slicing is state-identical to one call.  After each
    classifier's slice the progress counter ticks by the slice's rows,
    which feeds the worker heartbeat (stall watchdog) and is a
    cancellation point for graceful shutdown, as
    :meth:`repro.protocols.base.Protocol.run`'s ticks are.
    """
    data = trace.columns().data_only()
    step = signals.HEARTBEAT_CHUNK
    for start in range(0, len(data), step):
        part = data[start:start + step]
        rows = (part.proc.tolist(), part.op.tolist(), part.addr.tolist(),
                part.block_ids(block_map.offset_bits).tolist())
        for clf in classifiers:
            clf.feed_data(*rows)
            signals.note_progress(len(part))
