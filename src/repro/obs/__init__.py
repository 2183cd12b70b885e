"""``repro.obs`` — zero-dependency run telemetry.

A process-local :class:`Recorder` emits structured JSONL records —
spans with monotonic durations, named metrics, lifecycle events and
bridged log records — validated against the checked-in
``telemetry.schema.json``.  Every record of a run carries trace ids
(``trace_id``/``span_id``/``parent_id``): spans opened in forked
workers parent under the supervisor's ambient sweep span via the
context that rides each assign message, so ``repro trace``
(:mod:`repro.obs.tracing`) can reconstruct one causal tree per sweep
and attribute its critical path.  :class:`RunTelemetry` scopes a
recorder to a run directory, folds the stream into a queryable
``manifest.json`` and optionally drives a live stderr progress line;
``repro report`` renders the result, ``repro diff`` compares two runs,
and :mod:`repro.obs.history` keeps the cross-run perf trail.
Instrumented call sites go through :func:`get_recorder`, which returns
the no-op :data:`NULL_RECORDER` unless a run is active, so
telemetry-off overhead stays within the benchmark gate.
"""

from .history import (append_history, check_regressions, history_summary,
                      load_history, record_entry, record_run,
                      render_history)
from .logsetup import (LIBRARY_LOGGER, configure_logging, console_level,
                       library_logger)
from .manifest import (MANIFEST_VERSION, RunTelemetry, current_run,
                       find_runs, load_manifest, manifest_stable_bytes,
                       manifest_stable_view, result_digest,
                       validate_manifest)
from .progress import ProgressLine, format_eta, format_rate
from .recorder import (NULL_RECORDER, SCHEMA_VERSION, NullRecorder,
                       Recorder, TelemetryLogHandler, apply_trace_context,
                       get_recorder, new_span_id, set_recorder,
                       trace_context, use_recorder)
from .report import (render_report, render_run, render_summary,
                     report_summary, run_summary, slowest_spans)
from .schema import (SCHEMA_PATH, TelemetrySchemaError, iter_records,
                     load_schema, summarize_kinds, validate_record,
                     validate_stream)
from .tracing import (build_tree, critical_path, diff_manifests, diff_runs,
                      load_tree, path_contributors, render_diff,
                      render_trace, trace_summary)


def worker_begin() -> "Recorder | None":
    """Enter child-process telemetry mode (called by pool workers).

    If the fork inherited an active recorder, replace it with a
    buffering child recorder whose records the worker ships back over
    the supervisor reply channel; the parent's :class:`RunTelemetry`
    stays owned by the parent alone.  Returns the child recorder, or
    ``None`` when telemetry is off.
    """
    from . import manifest as _manifest

    _manifest._current_run = None
    if not get_recorder().active:
        return None
    child = Recorder.buffering()
    set_recorder(child)
    return child


__all__ = [
    "LIBRARY_LOGGER", "MANIFEST_VERSION", "NULL_RECORDER", "NullRecorder",
    "ProgressLine", "Recorder", "RunTelemetry", "SCHEMA_PATH",
    "SCHEMA_VERSION", "TelemetryLogHandler", "TelemetrySchemaError",
    "append_history", "apply_trace_context", "build_tree",
    "check_regressions", "configure_logging", "console_level",
    "critical_path", "current_run", "diff_manifests", "diff_runs",
    "find_runs", "format_eta", "format_rate", "get_recorder",
    "history_summary", "iter_records", "library_logger", "load_history",
    "load_manifest", "load_schema", "load_tree", "manifest_stable_bytes",
    "manifest_stable_view", "new_span_id", "path_contributors",
    "record_entry", "record_run", "render_diff", "render_history",
    "render_report", "render_run", "render_summary", "render_trace",
    "report_summary", "result_digest", "run_summary", "set_recorder",
    "slowest_spans", "summarize_kinds", "trace_context", "trace_summary",
    "use_recorder", "validate_manifest", "validate_record",
    "validate_stream", "worker_begin",
]
