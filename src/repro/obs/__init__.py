"""Structured tracing, metrics and run-health reporting.

A zero-dependency observability layer for the study pipeline
(FairPrep's "the pipeline is an inspectable artifact" stance applied
to this reproduction):

- :mod:`repro.obs.trace` — nestable spans with monotonic timings and
  per-span counters/attributes, point events, and a process-global
  tracer whose *disabled* fast path costs one attribute lookup.
- :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms whose snapshots merge deterministically across worker
  shards.
- :mod:`repro.obs.report` — the one reducer of trace events:
  :func:`build_health` folds ``trace.jsonl`` + ``failures.jsonl`` into
  a :class:`RunHealth` summary, and :func:`render_health_report`
  renders the plain-text ``python -m repro obs-report`` view.
- :mod:`repro.obs.progress` — read-only in-flight monitoring: the
  :class:`RunHealth` fold of the sidecars a live run is already
  writing, plus journal counts and clock arithmetic (ETA, stalled
  workers): ``python -m repro monitor``.
- :mod:`repro.obs.export` — Chrome Trace Event Format export for
  Perfetto / speedscope: ``python -m repro obs-export``.
- :mod:`repro.obs.profile` — opt-in memory telemetry (tracemalloc
  deltas + RSS gauges at hot-path span boundaries), behind
  ``--profile-memory``.
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
from repro.obs.export import (
    EXPORT_FORMATS,
    export_trace,
    to_chrome_trace,
)
from repro.obs.metrics import (
    DURATION_BUCKETS,
    MetricsRegistry,
    merge_metric_events,
)
from repro.obs.profile import (
    HOT_SPANS,
    disable_memory_profiling,
    enable_memory_profiling,
    memory_profiling_enabled,
    profile_memory,
    rss_bytes,
)
from repro.obs.progress import (
    ProgressSnapshot,
    WorkerStatus,
    monitor_run,
    render_progress,
    scan_run,
)
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
    gauge,
    get_tracer,
    heartbeat,
    histogram,
    install_span_hooks,
    is_enabled,
    scoped,
    shutdown,
    span,
    track_id,
    uninstall_span_hooks,
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
    "EXPORT_FORMATS",
    "export_trace",
    "to_chrome_trace",
    "DURATION_BUCKETS",
    "MetricsRegistry",
    "merge_metric_events",
    "HOT_SPANS",
    "disable_memory_profiling",
    "enable_memory_profiling",
    "memory_profiling_enabled",
    "profile_memory",
    "rss_bytes",
    "ProgressSnapshot",
    "WorkerStatus",
    "monitor_run",
    "render_progress",
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
    "gauge",
    "get_tracer",
    "heartbeat",
    "histogram",
    "install_span_hooks",
    "is_enabled",
    "scoped",
    "shutdown",
    "span",
    "track_id",
    "uninstall_span_hooks",
]
