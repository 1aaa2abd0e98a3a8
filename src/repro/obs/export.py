"""Chrome Trace Event Format export of JSONL trace sidecars.

:func:`to_chrome_trace` converts the events of a traced run into the
`Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto (ui.perfetto.dev), ``chrome://tracing`` and
speedscope:

- every ``span`` event becomes a complete (``ph: "X"``) slice with
  microsecond ``ts``/``dur``; slices sharing a track nest by time
  containment, so the runner's ``unit > cell > tune`` hierarchy
  renders as a flame chart without any extra bookkeeping;
- every point ``event`` becomes a thread-scoped instant (``ph: "i"``);
- each worker track ``w{pid}[.t{tid}]`` maps to a (pid, tid) pair with
  ``process_name``/``thread_name`` metadata (``ph: "M"``) records, so
  a multi-worker study shows one named track per worker;
- merged ``metric`` counters become counter (``ph: "C"``) samples on a
  dedicated track — a final-value sample per counter, since compacted
  metric snapshots carry no timestamps of their own.

Timestamps are re-based to the earliest event in the trace (Perfetto
handles epoch microseconds, but a run-relative timeline reads far
better). Events predating the ``ts`` field (older traces) have no
position on the timeline and are skipped; the count is reported in the
trace-level ``otherData`` so exports are never silently lossy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.metrics import merge_metric_events
from repro.obs.report import read_trace_events

def _track_ids(track: str) -> tuple[int, int]:
    """Map a ``w{pid}[.t{tid}]`` track to Chrome (pid, tid) numbers."""
    if not track.startswith("w"):
        return (0, 0)
    body = track[1:]
    if ".t" in body:
        pid_text, tid_text = body.split(".t", 1)
    else:
        pid_text, tid_text = body, "0"
    try:
        return (int(pid_text), int(tid_text))
    except ValueError:
        return (0, 0)


def _span_args(event: dict[str, Any]) -> dict[str, Any]:
    args: dict[str, Any] = {}
    args.update(event.get("attrs", {}))
    for counter, value in event.get("counters", {}).items():
        args[f"counter:{counter}"] = value
    if "path" in event:
        args["path"] = event["path"]
    return args


def to_chrome_trace(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert parsed trace events to a Chrome trace JSON object."""
    events = list(events)
    timestamped = [
        event
        for event in events
        if event.get("kind") in ("span", "event")
        and float(event.get("ts", 0.0)) > 0.0
    ]
    skipped = sum(
        1 for event in events if event.get("kind") in ("span", "event")
    ) - len(timestamped)
    origin = min(
        (float(event["ts"]) for event in timestamped), default=0.0
    )

    def rebase(ts: float) -> float:
        return (ts - origin) * 1e6

    out: list[dict[str, Any]] = []
    tracks: dict[str, tuple[int, int]] = {}
    last_us = 0.0
    for event in timestamped:
        track = str(event.get("w", "w0"))
        pid, tid = tracks.setdefault(track, _track_ids(track))
        ts_us = rebase(float(event["ts"]))
        if event["kind"] == "span":
            duration_us = max(0.0, float(event.get("seconds", 0.0)) * 1e6)
            out.append(
                {
                    "ph": "X",
                    "name": str(event.get("name", "?")),
                    "cat": "span",
                    "ts": ts_us,
                    "dur": duration_us,
                    "pid": pid,
                    "tid": tid,
                    "args": _span_args(event),
                }
            )
            last_us = max(last_us, ts_us + duration_us)
        else:
            out.append(
                {
                    "ph": "i",
                    "name": str(event.get("name", "?")),
                    "cat": "event",
                    "s": "t",
                    "ts": ts_us,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(event.get("attrs", {})),
                }
            )
            last_us = max(last_us, ts_us)
    for track in sorted(tracks):
        pid, tid = tracks[track]
        process = track.split(".t", 1)[0]
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for merged in merge_metric_events(
        [event for event in events if event.get("kind") == "metric"]
    ):
        labels = merged.get("labels", {})
        suffix = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        out.append(
            {
                "ph": "C",
                "name": f"{merged['name']}{suffix}",
                "cat": "metric",
                "ts": last_us,
                "pid": 0,
                "tid": 0,
                "args": {"value": merged["value"]},
            }
        )
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "skipped_untimestamped_events": skipped,
        },
    }


def export_trace(
    trace_paths: Sequence[str | Path],
    output_path: str | Path,
) -> int:
    """Export trace files to ``output_path`` in Chrome Trace Event
    Format; returns the event count."""
    payload = to_chrome_trace(read_trace_events(trace_paths))
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    with output_path.open("w") as handle:
        json.dump(payload, handle, sort_keys=True)
    return len(payload["traceEvents"])
