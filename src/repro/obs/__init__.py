"""Structured tracing, metrics and run-health reporting.

A zero-dependency observability layer for the study pipeline
(FairPrep's "the pipeline is an inspectable artifact" stance applied
to this reproduction):

- :mod:`repro.obs.trace` — nestable spans with monotonic timings and
  per-span counters/attributes, point events, and a process-global
  tracer whose *disabled* fast path costs one attribute lookup.
- :mod:`repro.obs.metrics` — counters whose snapshots sum
  deterministically across worker shards.
- :mod:`repro.obs.report` — the one reducer of trace events:
  :func:`build_health` folds the newest run's ``trace.jsonl`` +
  ``failures.jsonl`` into a :class:`RunHealth`, the one run summary,
  and :func:`render_health_report` renders it as plain text.
- :mod:`repro.obs.progress` — :func:`scan_run` reads that summary
  read-only from the sidecars a live run is already writing, with
  record counts and the clock (elapsed, rate, ETA, stalled workers):
  ``python -m repro obs-report [--follow]``.
- :mod:`repro.obs.export` — Chrome Trace Event Format export for
  Perfetto / speedscope: ``python -m repro obs-export``.
- :mod:`repro.obs.diff` — noise-aware cross-run regression diffs
  between two :class:`RunHealth` folds: ``python -m repro obs-diff``.
- :mod:`repro.obs.audit` — fairness outcomes as first-class telemetry,
  read from the store's records only: :class:`FairnessAudit` run
  summaries holding the paper's paired-t verdicts per configuration,
  and baseline diffs that flag a fairness verdict moving toward worse:
  ``python -m repro obs-audit`` (on a finished or an in-flight run).
  A baseline is a file holding what ``obs-audit --json`` printed.

Instrumentation is threaded through the hot layers (experiment
runner, parallel executor, grid search, cleaning detectors/repairers,
fault injectors) via the module-level helpers below; with tracing off
every instrumentation point is a no-op, and study results are
byte-identical with tracing on or off — trace events live in sidecar
shards (``{stem}.trace*.jsonl``) that never touch the result store.
A trace holds three kinds of telemetry, each read by the report, the
diff or the export: spans, point events and counter metrics.
"""

from repro.obs.audit import (
    AUDIT_METRICS,
    AuditDiff,
    AuditFinding,
    FairnessAudit,
    GroupAudit,
    build_audit,
    diff_audits,
    load_baseline,
    render_audit,
    render_audit_diff,
)
from repro.obs.diff import (
    DiffEntry,
    RunDiff,
    diff_runs,
    diff_stores,
    render_diff,
)
from repro.obs.export import export_trace, to_chrome_trace
from repro.obs.metrics import MetricsRegistry, merge_metric_events
from repro.obs.progress import monitor_run, scan_run
from repro.obs.report import (
    RunHealth,
    build_health,
    load_health,
    read_failures,
    read_trace_events,
    render_health_report,
)
from repro.obs.trace import (
    NOOP_SPAN,
    SCHEMA_VERSION,
    Span,
    TraceSink,
    Tracer,
    configure,
    counter,
    event,
    flush,
    heartbeat,
    is_enabled,
    scoped,
    shutdown,
    span,
    track_id,
)

__all__ = [
    "AUDIT_METRICS",
    "AuditDiff",
    "AuditFinding",
    "FairnessAudit",
    "GroupAudit",
    "build_audit",
    "diff_audits",
    "load_baseline",
    "render_audit",
    "render_audit_diff",
    "DiffEntry",
    "RunDiff",
    "diff_runs",
    "diff_stores",
    "render_diff",
    "export_trace",
    "to_chrome_trace",
    "MetricsRegistry",
    "merge_metric_events",
    "monitor_run",
    "scan_run",
    "RunHealth",
    "build_health",
    "load_health",
    "read_failures",
    "read_trace_events",
    "render_health_report",
    "NOOP_SPAN",
    "SCHEMA_VERSION",
    "Span",
    "TraceSink",
    "Tracer",
    "configure",
    "counter",
    "event",
    "flush",
    "heartbeat",
    "is_enabled",
    "scoped",
    "shutdown",
    "span",
    "track_id",
]
