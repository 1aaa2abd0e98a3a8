"""In-flight run monitoring from trace + journal sidecars.

:func:`scan_run` assembles a :class:`ProgressSnapshot` of a study run
by reading, **read-only**, the files the executor is writing anyway.
The trace files and the failures sidecar go through the one event
reducer, :func:`repro.obs.report.build_health`; this module adds only
the store and journal record counts and the clock arithmetic (elapsed,
rate, ETA, stalled workers, completion):

- ``{stem}.trace.jsonl`` — the parent executor's events. The
  ``planned`` event fixes the denominator (units/cells pending this
  run); ``unit_merged`` / ``retry`` / ``recovered`` / ``poison``
  events track the merge frontier and fault tally. The executor
  flushes after each of these, so they are visible mid-run.
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
monitor`` uses that as its exit condition.

Fairness is not part of the snapshot: ``python -m repro obs-audit
STORE`` audits the records journaled so far, read-only, on an
in-flight run as well as a finished one.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.report import load_health

#: Heartbeat age (seconds) beyond which a worker is reported stalled.
DEFAULT_STALL_AFTER = 60.0


@dataclass
class WorkerStatus:
    """Liveness of one worker track (``w{pid}`` / ``w{pid}.t{tid}``).

    Attributes:
        track: Worker track id.
        last_ts: Epoch timestamp of the newest heartbeat.
        age: Seconds between ``last_ts`` and the snapshot time.
        stalled: True when ``age`` exceeds the stall threshold and the
            run is not complete.
        cells_done: Cells this worker finished.
        last_phase: Phase attribute of the newest heartbeat.
    """

    track: str
    last_ts: float
    age: float
    stalled: bool
    cells_done: int
    last_phase: str


@dataclass
class ProgressSnapshot:
    """One read-only observation of a run's progress.

    ``planned_cells`` counts only the cells *pending this run* (the
    executor plans against the resumable store), so a resumed run
    reports progress of the remaining work, not the whole grid.
    """

    stem: str
    now: float
    planned_units: int = 0
    planned_cells: int = 0
    workers_planned: int = 0
    backend: str = ""
    units_merged: int = 0
    records_merged: int = 0
    cells_started: int = 0
    cells_done: int = 0
    cells_poisoned: int = 0
    journal_records: int = 0
    store_records: int = 0
    retries: int = 0
    recovered: int = 0
    poisoned_units: int = 0
    heartbeats: int = 0
    started_ts: float = 0.0
    last_ts: float = 0.0
    elapsed: float = 0.0
    cells_per_second: float = 0.0
    eta_seconds: float | None = None
    complete: bool = False
    throughput: dict[tuple[str, str, str], dict[str, float]] = field(
        default_factory=dict
    )
    workers: list[WorkerStatus] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        """Flat JSON-serialisable representation."""
        payload = asdict(self)
        payload["throughput"] = {
            "/".join(key): stats
            for key, stats in sorted(payload["throughput"].items())
        }
        return payload


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


def trace_files(store_path: str | Path) -> list[Path]:
    """The run's trace files: compacted sidecar first, then shards."""
    store_path = Path(store_path)
    stem = store_path.stem
    parent = store_path.parent
    main = parent / f"{stem}.trace.jsonl"
    paths = [main] if main.exists() else []
    paths.extend(sorted(parent.glob(f"{stem}.trace.*.jsonl")))
    return paths


def scan_run(
    store_path: str | Path,
    now: float | None = None,
    stall_after: float = DEFAULT_STALL_AFTER,
) -> ProgressSnapshot:
    """Observe a (possibly in-flight) traced run, read-only.

    ``store_path`` is the store manifest path the study was launched
    with (``--store``); ``now`` overrides the snapshot clock for
    deterministic tests.
    """
    store_path = Path(store_path)
    now = time.time() if now is None else now
    health = load_health(
        trace_files(store_path),
        store_path.parent / f"{store_path.stem}.failures.jsonl",
    )
    snapshot = ProgressSnapshot(
        stem=str(store_path),
        now=now,
        planned_units=health.planned.get("units", 0),
        planned_cells=health.planned.get("cells", 0),
        workers_planned=health.planned.get("workers", 0),
        backend=health.planned.get("backend", ""),
        units_merged=health.units_merged,
        records_merged=health.records_merged,
        cells_started=health.cells_started,
        cells_done=health.cells_done,
        cells_poisoned=sum(
            len(entry.get("pending_cells", ())) for entry in health.failures
        ),
        journal_records=_journal_record_count(store_path),
        store_records=_store_record_count(store_path),
        retries=health.retries,
        recovered=health.recovered,
        poisoned_units=health.poisoned,
        heartbeats=health.heartbeats,
        started_ts=health.first_ts,
        last_ts=health.last_ts,
        throughput=health.throughput,
    )
    if snapshot.started_ts > 0.0:
        # a clock-skewed heartbeat can carry ts >= now; clamp instead
        # of propagating a negative elapsed into the rate math
        snapshot.elapsed = max(0.0, now - snapshot.started_ts)
    if snapshot.elapsed > 0.0 and snapshot.cells_done > 0:
        snapshot.cells_per_second = snapshot.cells_done / snapshot.elapsed
    # poisoned cells count toward completion: when every remaining
    # cell was poisoned the run is over and there is no ETA — and the
    # subtraction is clamped so over-counted failure sidecars (e.g. a
    # unit poisoned after partial progress) cannot drive `remaining`
    # negative
    remaining = max(
        0,
        snapshot.planned_cells - snapshot.cells_done - snapshot.cells_poisoned,
    )
    snapshot.complete = snapshot.planned_cells > 0 and remaining == 0
    # the ETA exists only when there is work left AND an observed rate
    # (a zero-elapsed heartbeat burst yields rate 0, never a division
    # by zero), and is clamped non-negative
    if not snapshot.complete and remaining > 0 and snapshot.cells_per_second > 0.0:
        snapshot.eta_seconds = max(0.0, remaining / snapshot.cells_per_second)
    for name in sorted(health.tracks):
        track = health.tracks[name]
        if track["last_ts"] <= 0.0:
            continue  # no timestamped heartbeat: nothing to age
        age = max(0.0, now - track["last_ts"])
        snapshot.workers.append(
            WorkerStatus(
                track=name,
                last_ts=track["last_ts"],
                age=age,
                stalled=not snapshot.complete and age > stall_after,
                cells_done=track["cells_done"],
                last_phase=track["last_phase"],
            )
        )
    return snapshot


def _format_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--"
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds:.0f}s"


def render_progress(snapshot: ProgressSnapshot) -> str:
    """Plain-text monitor view of one snapshot."""
    done = snapshot.cells_done
    total = snapshot.planned_cells
    # a resumed run can replay more cell_done heartbeats than this
    # run planned; clamp the display instead of reporting > 100%
    percent = min(100.0, 100.0 * done / total) if total else 0.0
    lines = [
        f"run: {snapshot.stem}"
        + ("   [COMPLETE]" if snapshot.complete else ""),
        f"cells: {done}/{total} ({percent:.0f}%)   "
        f"units merged: {snapshot.units_merged}/{snapshot.planned_units}   "
        f"records: {snapshot.store_records} compacted "
        f"+ {snapshot.journal_records} journaled",
        f"elapsed: {snapshot.elapsed:.0f}s   "
        f"rate: {snapshot.cells_per_second:.2f} cells/s   "
        f"eta: {_format_eta(snapshot.eta_seconds)}   "
        f"retries: {snapshot.retries}   "
        f"poisoned: {snapshot.poisoned_units}",
    ]
    if snapshot.throughput:
        lines.append("throughput by configuration:")
        for key in sorted(snapshot.throughput):
            stats = snapshot.throughput[key]
            lines.append(
                f"  {'/'.join(key)}: {int(stats['cells'])} cells, "
                f"{stats['cells_per_second']:.2f} cells/s"
            )
    if snapshot.workers:
        lines.append("workers:")
        for worker in snapshot.workers:
            flag = "  STALLED" if worker.stalled else ""
            lines.append(
                f"  {worker.track}: {worker.cells_done} cells, "
                f"last {worker.last_phase} {worker.age:.1f}s ago{flag}"
            )
    return "\n".join(lines)


def monitor_run(
    store_path: str | Path,
    interval: float = 2.0,
    stall_after: float = DEFAULT_STALL_AFTER,
    once: bool = False,
    emit=print,
    max_iterations: int | None = None,
) -> ProgressSnapshot:
    """Poll a run until it completes, emitting a report per interval.

    Returns the final snapshot. ``once`` takes a single snapshot (the
    ``monitor --once`` mode); ``max_iterations`` bounds the loop for
    tests and cron-style use.
    """
    iterations = 0
    while True:
        snapshot = scan_run(store_path, stall_after=stall_after)
        emit(render_progress(snapshot))
        iterations += 1
        if snapshot.complete or once:
            return snapshot
        if max_iterations is not None and iterations >= max_iterations:
            return snapshot
        time.sleep(interval)
