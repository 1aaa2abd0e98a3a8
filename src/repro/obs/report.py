"""Run-health reporting from ``trace.jsonl`` + ``failures.jsonl``.

:func:`build_health` is the one reducer of trace events: a single pass
folds a run's events into a :class:`RunHealth` summary — progress
(planned totals, merged units, cells started/done/poisoned,
completion, per-configuration throughput, each worker track's newest
heartbeat), per-phase time breakdown with p50/p95, slowest cells,
retry/poison/timeout tallies, cache hit rates and injected-fault
counts. :func:`repro.obs.progress.scan_run` adds the clock (elapsed,
rate, ETA, heartbeat ages) for a live read, and
:func:`render_health_report` renders the summary as the plain-text
``python -m repro obs-report`` view. The same fold is available as
:meth:`repro.benchmark.ResultStore.health`, and ``obs-diff``
(:func:`repro.obs.diff.diff_runs`) reads its numbers from this fold
too, so the views cannot disagree.

A store's trace accumulates every traced run against it, so the fold
is scoped to the newest run: every span and point event whose ``ts``
is at or after the newest ``planned`` event's ``ts`` belongs to it,
and every other one is dropped. A failures-sidecar entry counts only
if that run emitted a ``poison`` event for its unit. Counters carry no
``ts`` and are summed at compaction, so they cover all runs
(``RunHealth.runs`` says how many). A trace without a ``planned``
event folds whole.

Phase totals aggregate *span* events by name. Spans nest (a ``unit``
span contains its ``prepare`` and ``cell`` spans; a ``cell`` contains
``tune`` and ``score``), so phase totals are not additive across
nesting levels — compare siblings, not parents with children.

Event names the fold does not know (such as the per-cell ``fairness``
events older traces carry) are counted in ``n_events`` and otherwise
ignored; fairness is read from the store's records instead
(:func:`repro.obs.audit.build_audit`). Likewise, span attributes the
fold does not read (such as older memory samples) are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.metrics import merge_metric_events


def read_trace_events(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Parse trace events from JSONL shards, in shard-then-line order.

    Undecodable lines (e.g. the torn tail of a crashed writer) are
    skipped, mirroring the result journal's replay tolerance.
    """
    events: list[dict[str, Any]] = []
    for path in paths:
        path = Path(path)
        if not path.exists():
            continue
        with path.open("r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict) and "kind" in event:
                    events.append(event)
    return events


def read_failures(path: str | Path | None) -> list[dict[str, Any]]:
    """Parse the poisoned-unit sidecar (missing file → empty list)."""
    if path is None:
        return []
    path = Path(path)
    if not path.exists():
        return []
    failures: list[dict[str, Any]] = []
    with path.open("r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict):
                failures.append(payload)
    return failures


@dataclass
class RunHealth:
    """Aggregated health view of one study run.

    Attributes:
        phase_totals: Per span name: ``{"count", "seconds", "p50",
            "p95"}`` — the quantiles are nearest-rank span seconds.
        model_seconds: Total ``cell`` span seconds per model.
        detector_stats: Per detector: ``{"count", "seconds", "flagged"}``.
        repair_stats: Per repair: ``{"count", "seconds"}``.
        slowest_cells: ``cell`` spans sorted by descending seconds
            (coordinates + seconds), untruncated — renderers cut to
            their own top-N.
        tuning: Grid-search totals: fit/score seconds and the
            fast-path vs naive dispatch counts.
        cache: Per cache name: ``{"hits", "misses", "hit_rate"}``.
        reuse: Per incremental-reuse kind (``featurize``, ``masks``,
            ``tree_presort``, ``model_eval``):
            ``{"hits", "misses", "hit_rate"}``.
        cells_warm_started: Cells in which at least one incremental
            reuse hit fired (also available as the ``warm_started``
            attribute on ``cell`` spans).
        retries / recovered / poisoned / timeouts: Executor
            fault-tolerance tally (``recovered`` counts failed units
            fully reconstructed from their journal shard, no retry;
            ``poisoned`` counts distinct ``(dataset, error_type,
            repetition)`` units over ``poison`` events and sidecar
            entries, so a unit both sources report counts once).
        cells_poisoned: Pending cells of the counted sidecar entries.
        heartbeats: Flushed liveness events observed (unit/cell
            progress beacons a live ``obs-report`` reads).
        backoff_seconds: Total injected retry backoff sleep.
        faults: Injected-fault firings by kind (chaos runs only).
        counters: All merged metric counters, keyed
            ``name{label=value,...}`` — over all runs in the trace.
        runs: ``planned`` events in the trace: the traced runs whose
            counters ``counters``, ``cache``, ``reuse`` and
            ``cells_warm_started`` sum.
        planned: The newest ``planned`` event's ``units``, ``cells``,
            ``workers`` and ``backend`` (empty when none was seen).
        units_merged / records_merged: ``unit_merged`` events and the
            records they merged.
        cells_started / cells_done: ``cell_start`` / ``cell_done``
            heartbeats.
        throughput: Per ``(dataset, error_type, model)``:
            ``{"cells", "seconds", "cells_per_second"}`` from
            ``cell_done`` heartbeats.
        tracks: Per worker track with a timestamped heartbeat:
            ``{"last_ts", "last_phase", "cells_done"}`` — its newest
            heartbeat and the cells it finished; :func:`scan_run
            <repro.obs.progress.scan_run>` adds ``age`` and
            ``stalled``.
        complete: Every planned cell is done or poisoned.
        first_ts / last_ts: Earliest and latest timestamp over the
            folded non-metric events (0 when none carried one).
        elapsed / cells_per_second / eta_seconds: Clock fields
            :func:`~repro.obs.progress.scan_run` fills (0, 0 and
            ``None`` otherwise); the ETA exists only while cells
            remain at an observed rate.
        journal_records / store_records: Records journaled so far and
            already compacted, also filled by ``scan_run``.
        failures: Parsed poisoned-unit sidecar entries.
        n_events: Total trace events consumed.
        untraced: True when the summary was built for a store with no
            trace sidecars at all (e.g. a ``--no-trace`` run) — an
            explicitly-empty health object rather than a silent one.
    """

    phase_totals: dict[str, dict[str, float]] = field(default_factory=dict)
    model_seconds: dict[str, float] = field(default_factory=dict)
    detector_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    repair_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    slowest_cells: list[dict[str, Any]] = field(default_factory=list)
    tuning: dict[str, float] = field(default_factory=dict)
    cache: dict[str, dict[str, float]] = field(default_factory=dict)
    reuse: dict[str, dict[str, float]] = field(default_factory=dict)
    cells_warm_started: int = 0
    retries: int = 0
    recovered: int = 0
    poisoned: int = 0
    cells_poisoned: int = 0
    timeouts: int = 0
    heartbeats: int = 0
    backoff_seconds: float = 0.0
    faults: dict[str, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    runs: int = 0
    planned: dict[str, Any] = field(default_factory=dict)
    units_merged: int = 0
    records_merged: int = 0
    cells_started: int = 0
    cells_done: int = 0
    throughput: dict[tuple[str, str, str], dict[str, float]] = field(
        default_factory=dict
    )
    tracks: dict[str, dict[str, Any]] = field(default_factory=dict)
    complete: bool = False
    first_ts: float = 0.0
    last_ts: float = 0.0
    elapsed: float = 0.0
    cells_per_second: float = 0.0
    eta_seconds: float | None = None
    journal_records: int = 0
    store_records: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    n_events: int = 0
    untraced: bool = False

    def to_json(self) -> dict[str, Any]:
        """Flat JSON-serialisable representation.

        Every mapping (including nested ones) is emitted with sorted
        keys, so the serialised bytes are identical regardless of the
        order events were folded in — an ``obs-diff`` of two identical
        runs must never see ordering noise.
        """
        return _canonical({f.name: getattr(self, f.name) for f in fields(self)})

    @property
    def stalled(self) -> bool:
        """Incomplete, with every worker track stalled: a dead run.

        Track stalls come from :func:`scan_run
        <repro.obs.progress.scan_run>`; a run with no track yet is not
        stalled.
        """
        return (
            not self.complete
            and bool(self.tracks)
            and all(track.get("stalled") for track in self.tracks.values())
        )

    @property
    def remaining_cells(self) -> int:
        """Planned cells neither done nor poisoned, clamped at 0: a unit
        poisoned after partial progress lists cells already counted
        done."""
        return max(
            0,
            self.planned.get("cells", 0) - self.cells_done - self.cells_poisoned,
        )


def _canonical(value: Any) -> Any:
    """Recursively sort mapping keys (tuple keys join with ``/``);
    lists keep their (already deterministic) order."""
    if isinstance(value, dict):
        keyed = {
            "/".join(key) if isinstance(key, tuple) else str(key): item
            for key, item in value.items()
        }
        return {key: _canonical(keyed[key]) for key in sorted(keyed)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _counter_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


#: Counters behind the hit rates: name → (RunHealth field, label, side).
_HIT_RATE_COUNTERS = {
    "cache_hit": ("cache", "cache", "hits"),
    "cache_miss": ("cache", "cache", "misses"),
    "reuse_hit": ("reuse", "kind", "hits"),
    "reuse_miss": ("reuse", "kind", "misses"),
}


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    index = min(len(values) - 1, max(0, math.ceil(fraction * len(values)) - 1))
    return values[index]


def build_health(
    events: Sequence[dict[str, Any]],
    failures: Sequence[dict[str, Any]] = (),
) -> RunHealth:
    """Fold the newest run's trace events + sidecar entries into a
    :class:`RunHealth` (the run scope is in the module docstring).

    The failures sidecar is append-only, so a unit poisoned again by a
    re-run has one entry per run; only the newest entry per unit is
    kept.
    """
    starts = [
        float(event.get("ts", 0.0))
        for event in events
        if event.get("kind") == "event" and event.get("name") == "planned"
    ]
    start = max(starts, default=None)
    health = RunHealth(runs=len(starts), n_events=len(events))
    cells: list[dict[str, Any]] = []
    durations: dict[str, list[float]] = {}
    metrics: list[dict[str, Any]] = []
    poisoned: set[tuple[str, str, str]] = set()
    for event in events:
        kind = event.get("kind")
        if kind == "metric":
            metrics.append(event)
            continue
        ts = float(event.get("ts", 0.0))
        if start is not None and ts < start:
            continue  # an earlier run's event
        if ts > 0.0:
            if health.first_ts == 0.0 or ts < health.first_ts:
                health.first_ts = ts
            health.last_ts = max(health.last_ts, ts)
        if kind == "span":
            _fold_span(health, event, cells, durations)
        elif kind == "event":
            _fold_event(health, event, ts, poisoned)
    newest = {
        _unit_key(failure): failure
        for failure in failures
        if start is None or _unit_key(failure) in poisoned
    }
    health.failures = list(newest.values())
    health.poisoned = len(poisoned | set(newest))
    health.cells_poisoned = sum(
        len(entry.get("pending_cells", ())) for entry in health.failures
    )
    health.complete = (
        health.planned.get("cells", 0) > 0 and health.remaining_cells == 0
    )
    for name, values in durations.items():
        total = sum(values)  # in event order, before the sort
        values.sort()
        health.phase_totals[name] = {
            "count": len(values),
            "seconds": total,
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
        }
    for stats in health.throughput.values():
        stats["cells_per_second"] = (
            stats["cells"] / stats["seconds"] if stats["seconds"] > 0 else 0.0
        )
    for snapshot in merge_metric_events(metrics):
        name = snapshot["name"]
        labels = snapshot.get("labels", {})
        health.counters[_counter_key(name, labels)] = snapshot["value"]
        if name in _HIT_RATE_COUNTERS:
            family, label, side = _HIT_RATE_COUNTERS[name]
            rates = getattr(health, family).setdefault(
                str(labels.get(label, "?")), {"hits": 0.0, "misses": 0.0}
            )
            rates[side] += snapshot["value"]
        elif name == "cells_warm_started":
            health.cells_warm_started += int(snapshot["value"])
    for rates in (*health.cache.values(), *health.reuse.values()):
        total = rates["hits"] + rates["misses"]
        rates["hit_rate"] = rates["hits"] / total if total else float("nan")
    # full tiebreak (not just -seconds) so the order — and therefore
    # the serialised report bytes — is invariant under shard-file
    # permutation, where equal-duration cells arrive in any order
    health.slowest_cells = sorted(
        cells,
        key=lambda cell: (
            -cell["seconds"],
            json.dumps(cell, sort_keys=True, default=str),
        ),
    )
    return health


def _unit_key(payload: dict[str, Any]) -> tuple[str, str, str]:
    """A work unit's ``(dataset, error_type, repetition)`` identity."""
    return tuple(
        str(payload.get(part)) for part in ("dataset", "error_type", "repetition")
    )


def _fold_span(
    health: RunHealth,
    event: dict[str, Any],
    cells: list[dict[str, Any]],
    durations: dict[str, list[float]],
) -> None:
    name = event.get("name", "?")
    seconds = float(event.get("seconds", 0.0))
    attrs = event.get("attrs", {})
    counters = event.get("counters", {})
    durations.setdefault(name, []).append(seconds)
    if name == "cell":
        cells.append({**attrs, "seconds": seconds})
        model = str(attrs.get("model", "?"))
        health.model_seconds[model] = (
            health.model_seconds.get(model, 0.0) + seconds
        )
    elif name == "detect":
        detector = str(attrs.get("detector", "?"))
        stats = health.detector_stats.setdefault(
            detector, {"count": 0, "seconds": 0.0, "flagged": 0}
        )
        stats["count"] += 1
        stats["seconds"] += seconds
        stats["flagged"] += int(counters.get("flagged", 0))
    elif name == "repair":
        repair = str(attrs.get("repair", "?"))
        stats = health.repair_stats.setdefault(
            repair, {"count": 0, "seconds": 0.0}
        )
        stats["count"] += 1
        stats["seconds"] += seconds
    elif name == "tune":
        health.tuning["fit_seconds"] = health.tuning.get(
            "fit_seconds", 0.0
        ) + float(counters.get("fit_seconds", 0.0))
        health.tuning["score_seconds"] = health.tuning.get(
            "score_seconds", 0.0
        ) + float(counters.get("score_seconds", 0.0))
        dispatch = "fast_path" if attrs.get("fast_path") else "naive"
        health.tuning[dispatch] = health.tuning.get(dispatch, 0) + 1


def _fold_event(
    health: RunHealth,
    event: dict[str, Any],
    ts: float,
    poisoned: set[tuple[str, str, str]],
) -> None:
    name = event.get("name")
    attrs = event.get("attrs", {})
    if name in ("retry", "recovered", "poison"):
        if name == "retry":
            health.retries += 1
        elif name == "recovered":
            health.recovered += 1
        else:
            poisoned.add(_unit_key(attrs))
        if "Timeout" in str(attrs.get("error", "")):
            health.timeouts += 1
    elif name == "heartbeat":
        health.heartbeats += 1
        _fold_heartbeat(health, event, attrs, ts)
    elif name == "planned":
        health.planned = {
            "units": int(attrs.get("units", 0)),
            "cells": int(attrs.get("cells", 0)),
            "workers": int(attrs.get("workers", 0)),
            "backend": str(attrs.get("backend", "")),
        }
    elif name == "unit_merged":
        health.units_merged += 1
        health.records_merged += int(attrs.get("records", 0))
    elif name == "backoff_sleep":
        health.backoff_seconds += float(attrs.get("seconds", 0.0))
    elif name == "fault_injected":
        kind = str(attrs.get("fault", "?"))
        health.faults[kind] = health.faults.get(kind, 0) + 1


def _fold_heartbeat(
    health: RunHealth, event: dict[str, Any], attrs: dict[str, Any], ts: float
) -> None:
    phase = str(attrs.get("phase", "?"))
    track = None
    if ts > 0.0:
        track = health.tracks.setdefault(
            str(event.get("w", "?")),
            {"last_ts": 0.0, "last_phase": "", "cells_done": 0},
        )
        if ts >= track["last_ts"]:
            track["last_ts"] = ts
            track["last_phase"] = phase
    if phase == "cell_start":
        health.cells_started += 1
    elif phase == "cell_done":
        health.cells_done += 1
        if track is not None:
            track["cells_done"] += 1
        key = (
            str(attrs.get("dataset", "?")),
            str(attrs.get("error_type", "?")),
            str(attrs.get("model", "?")),
        )
        stats = health.throughput.setdefault(key, {"cells": 0.0, "seconds": 0.0})
        stats["cells"] += 1
        stats["seconds"] += float(attrs.get("seconds", 0.0))


def load_health(
    trace_paths: Iterable[str | Path],
    failures_path: str | Path | None = None,
) -> RunHealth:
    """Read trace shards + sidecar from disk and build the summary."""
    return build_health(
        read_trace_events(trace_paths), read_failures(failures_path)
    )


def _format_seconds(seconds: float) -> str:
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def _table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> list[str]:
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(str(header).ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(value).ljust(width) for value, width in zip(row, widths))
        )
    return lines


def render_health_report(health: RunHealth, top: int = 10) -> str:
    """Plain-text run-health report (the ``obs-report`` output)."""
    lines: list[str] = ["RUN HEALTH", "=========="]
    if health.untraced:
        lines.append(
            "untraced store: no trace sidecars were written (run with "
            "--trace for telemetry)"
        )
    if health.planned:
        done, total = health.cells_done, health.planned["cells"]
        # a resumed run can replay more cell_done heartbeats than it
        # planned; clamp the display instead of reporting > 100%
        percent = min(100.0, 100.0 * done / total) if total else 0.0
        eta = health.eta_seconds
        lines += [
            f"cells: {done}/{total} ({percent:.0f}%)   units merged: "
            f"{health.units_merged}/{health.planned['units']}   "
            f"runs in trace: {health.runs} (newest shown)"
            + ("   [COMPLETE]" if health.complete else ""),
            f"records: {health.store_records} compacted + "
            f"{health.journal_records} journaled   "
            f"elapsed: {_format_seconds(health.elapsed)}   "
            f"rate: {health.cells_per_second:.2f} cells/s   "
            f"eta: {'--' if eta is None else _format_seconds(eta)}",
        ]
    lines.append(
        f"trace events: {health.n_events}   retries: {health.retries}   "
        f"recovered: {health.recovered}   poisoned: {health.poisoned}   "
        f"timeouts: {health.timeouts}   "
        f"heartbeats: {health.heartbeats}   "
        f"backoff: {_format_seconds(health.backoff_seconds)}"
    )
    if health.throughput:
        lines += ["", "Throughput by configuration"]
        rows = [
            (
                "/".join(key),
                str(int(stats["cells"])),
                f"{stats['cells_per_second']:.2f}",
            )
            for key, stats in sorted(health.throughput.items())
        ]
        lines += _table(("configuration", "cells", "cells/s"), rows)
    if health.tracks:
        lines += ["", "Workers"]
        rows = [
            (
                name,
                str(track["cells_done"]),
                track["last_phase"],
                f"{track['age']:.1f}s" if "age" in track else "",
                "STALLED" if track.get("stalled") else "",
            )
            for name, track in sorted(health.tracks.items())
        ]
        lines += _table(("track", "cells", "last heartbeat", "age", "state"), rows)
    if health.phase_totals:
        lines += ["", "Phase totals (spans nest; compare siblings)"]
        rows = [
            (
                name,
                str(int(stats["count"])),
                _format_seconds(stats["seconds"]),
                _format_seconds(stats["seconds"] / stats["count"]),
            )
            for name, stats in sorted(
                health.phase_totals.items(), key=lambda kv: -kv[1]["seconds"]
            )
        ]
        lines += _table(("phase", "count", "total", "mean"), rows)
    if health.model_seconds:
        lines += ["", "Cell time by model"]
        rows = [
            (model, _format_seconds(seconds))
            for model, seconds in sorted(
                health.model_seconds.items(), key=lambda kv: -kv[1]
            )
        ]
        lines += _table(("model", "total"), rows)
    if health.detector_stats:
        lines += ["", "Detectors"]
        rows = [
            (
                detector,
                str(int(stats["count"])),
                _format_seconds(stats["seconds"]),
                str(int(stats["flagged"])),
            )
            for detector, stats in sorted(
                health.detector_stats.items(), key=lambda kv: -kv[1]["seconds"]
            )
        ]
        lines += _table(("detector", "applies", "total", "tuples flagged"), rows)
    if health.repair_stats:
        lines += ["", "Repairs"]
        rows = [
            (
                repair,
                str(int(stats["count"])),
                _format_seconds(stats["seconds"]),
            )
            for repair, stats in sorted(
                health.repair_stats.items(), key=lambda kv: -kv[1]["seconds"]
            )
        ]
        lines += _table(("repair", "applies", "total"), rows)
    if health.tuning:
        lines += ["", "Hyperparameter tuning"]
        lines.append(
            f"  fit: {_format_seconds(health.tuning.get('fit_seconds', 0.0))}"
            f"   score: "
            f"{_format_seconds(health.tuning.get('score_seconds', 0.0))}"
            f"   fast-path searches: {int(health.tuning.get('fast_path', 0))}"
            f"   naive searches: {int(health.tuning.get('naive', 0))}"
        )
    if health.cache:
        lines += ["", "Caches (all runs)"]
        rows = [
            (
                name,
                str(int(stats["hits"])),
                str(int(stats["misses"])),
                f"{stats['hit_rate'] * 100.0:.1f}%",
            )
            for name, stats in sorted(health.cache.items())
        ]
        lines += _table(("cache", "hits", "misses", "hit rate"), rows)
    if health.reuse:
        lines += [
            "",
            "Incremental reuse (all runs; cells warm-started: "
            f"{health.cells_warm_started})",
        ]
        rows = [
            (
                kind,
                str(int(stats["hits"])),
                str(int(stats["misses"])),
                f"{stats['hit_rate'] * 100.0:.1f}%",
            )
            for kind, stats in sorted(health.reuse.items())
        ]
        lines += _table(("reuse kind", "hits", "misses", "hit rate"), rows)
    if health.slowest_cells:
        lines += ["", f"Slowest cells (top {top})"]
        rows = [
            (
                "/".join(
                    str(cell.get(part, "?"))
                    for part in ("dataset", "error_type", "repetition")
                ),
                str(cell.get("model", "?")),
                str(cell.get("seed", "?")),
                _format_seconds(cell["seconds"]),
            )
            for cell in health.slowest_cells[:top]
        ]
        lines += _table(("unit", "model", "seed", "seconds"), rows)
    if health.faults:
        lines += ["", "Injected faults observed"]
        rows = [
            (kind, str(count)) for kind, count in sorted(health.faults.items())
        ]
        lines += _table(("kind", "fired"), rows)
    if health.failures:
        lines += ["", "Poisoned work units"]
        rows = [
            (
                "/".join(
                    str(failure.get(part, "?"))
                    for part in ("dataset", "error_type", "repetition")
                ),
                str(failure.get("attempts", "?")),
                str(failure.get("error", "?"))[:60],
            )
            for failure in health.failures
        ]
        lines += _table(("unit", "attempts", "error"), rows)
    return "\n".join(lines)
