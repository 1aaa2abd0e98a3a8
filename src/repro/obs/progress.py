"""In-flight run monitoring from trace + journal sidecars.

:func:`scan_run` reads a (possibly in-flight) study run, **read-only**,
from the files the executor is writing anyway, and returns the one run
summary, :class:`repro.obs.report.RunHealth`. The trace files and the
failures sidecar go through the one event reducer,
:func:`repro.obs.report.build_health`, scoped to the store's newest
run; this module adds only the store and journal record counts and the
clock arithmetic (elapsed, rate, ETA, heartbeat ages, stalled tracks):

- ``{stem}.trace.jsonl`` — the parent executor's events. The
  ``planned`` event fixes the denominator (units/cells pending this
  run) and starts the run's scope; ``unit_merged`` / ``retry`` /
  ``recovered`` / ``poison`` events track the merge frontier and fault
  tally. The executor flushes after each of these, so they are visible
  mid-run.
- ``{stem}.trace.w*.jsonl`` — per-worker shards. Workers emit flushed
  ``heartbeat`` events at unit start and around every cell
  (:meth:`repro.benchmark.runner.ExperimentRunner.run_repetition_cells`),
  which yields cells done/started, per-``(dataset, error_type,
  model)`` throughput, and — from the age of each worker's newest
  heartbeat — stalled-worker detection.
- ``{stem}.w*.jsonl`` journal shards — records appended so far (the
  ground truth the run would recover from after a crash).
- ``{stem}.json`` manifest + ``{stem}.failures.jsonl`` — records
  compacted by previous runs, and poisoned units.

Nothing here takes locks or opens files for writing, so monitoring
cannot perturb the run; torn trailing lines (a writer mid-append) are
skipped by the tolerant JSONL readers. After the run finishes and
compacts, the same scan still works against the compacted
``trace.jsonl`` and reports the run as complete — ``python -m repro
obs-report --follow`` (:func:`monitor_run`) uses that as its exit
condition, and stops as well on a dead run: one whose every worker
track has been silent past the stall threshold with cells remaining.

Fairness is not part of the summary: ``python -m repro obs-audit
STORE`` audits the records journaled so far, read-only, on an
in-flight run as well as a finished one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs.report import (
    RunHealth,
    build_health,
    read_failures,
    read_trace_events,
    render_health_report,
)

#: Heartbeat age (seconds) beyond which a worker is reported stalled.
DEFAULT_STALL_AFTER = 60.0

#: Reads of a trace that keeps changing under compaction before the
#: scan settles for the last one.
_MAX_TRACE_READS = 5


def _store_record_count(store_path: Path) -> int:
    """Records already compacted into the sharded store (0 if none)."""
    if not store_path.exists():
        return 0
    try:
        with store_path.open("r") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return 0
    if not isinstance(payload, dict):
        return 0
    if "shards" in payload:
        return sum(
            int(entry.get("records", len(entry.get("keys", ()))))
            for entry in payload["shards"]
            if isinstance(entry, dict)
        )
    if "records" in payload and isinstance(payload["records"], list):
        return len(payload["records"])
    return 0


def _journal_record_count(store_path: Path) -> int:
    """Decodable record lines across all journal shards, read-only."""
    from repro.benchmark.results import journal_files

    count = 0
    for path in journal_files(store_path):
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and "metrics" in payload:
                count += 1
    return count


def _file_ids(paths: list[Path]) -> list[tuple[str, int]]:
    """``(name, inode)`` of each file that still exists."""
    ids = []
    for path in paths:
        try:
            ids.append((path.name, path.stat().st_ino))
        except OSError:
            continue
    return ids


def _read_live_trace(store_path: Path) -> list[dict[str, Any]]:
    """The trace events of a run that may be compacting its trace.

    Compaction replaces ``{stem}.trace.jsonl`` and then unlinks the
    worker shards, so a read that overlaps it can miss a shard's
    events or read them twice. Re-read until the trace files, and the
    inode of each, are the same after the read as before it.
    """
    from repro.benchmark.results import trace_files

    for _ in range(_MAX_TRACE_READS):
        paths = trace_files(store_path)
        before = _file_ids(paths)
        events = read_trace_events(paths)
        if _file_ids(trace_files(store_path)) == before:
            break
    return events


def scan_run(
    store_path: str | Path,
    now: float | None = None,
    stall_after: float = DEFAULT_STALL_AFTER,
) -> RunHealth:
    """Observe a (possibly in-flight) traced run, read-only.

    ``store_path`` is the store manifest path the study was launched
    with (``--store``); ``now`` overrides the clock for deterministic
    tests. A track whose newest heartbeat is older than
    ``stall_after`` seconds is stalled, unless the run is complete.
    """
    from repro.benchmark.results import failures_file

    store_path = Path(store_path)
    now = time.time() if now is None else now
    health = build_health(
        _read_live_trace(store_path), read_failures(failures_file(store_path))
    )
    health.journal_records = _journal_record_count(store_path)
    health.store_records = _store_record_count(store_path)
    if health.first_ts > 0.0:
        # a clock-skewed heartbeat can carry ts >= now; clamp instead
        # of propagating a negative elapsed into the rate math
        health.elapsed = max(0.0, now - health.first_ts)
    if health.elapsed > 0.0 and health.cells_done > 0:
        health.cells_per_second = health.cells_done / health.elapsed
    # the ETA exists only when there is work left AND an observed rate
    # (a zero-elapsed heartbeat burst yields rate 0, never a division
    # by zero)
    if health.remaining_cells > 0 and health.cells_per_second > 0.0:
        health.eta_seconds = health.remaining_cells / health.cells_per_second
    for track in health.tracks.values():
        track["age"] = max(0.0, now - track["last_ts"])
        track["stalled"] = not health.complete and track["age"] > stall_after
    return health


def monitor_run(
    store_path: str | Path,
    interval: float = 2.0,
    stall_after: float = DEFAULT_STALL_AFTER,
    render: Callable[[RunHealth], str] = render_health_report,
    emit: Callable[[str], object] = print,
    max_iterations: int | None = None,
) -> RunHealth:
    """Scan and emit a run's rendered summary every ``interval``
    seconds until it is complete, or until every worker track has
    been stalled past ``stall_after`` with cells still remaining (a
    dead run, :attr:`RunHealth.stalled`) — ``obs-report --follow``.

    Returns the last summary; ``max_iterations`` bounds the loop
    (``obs-report`` without ``--follow`` is one iteration).
    """
    iterations = 0
    while True:
        health = scan_run(store_path, stall_after=stall_after)
        emit(render(health))
        iterations += 1
        if health.complete or health.stalled or iterations == max_iterations:
            return health
        time.sleep(interval)
