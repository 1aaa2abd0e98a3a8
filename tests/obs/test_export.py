"""Tests for Chrome Trace Event Format export (repro.obs.export)."""

import json

import pytest

from repro.obs import export_trace, to_chrome_trace
from repro.obs.export import _track_ids


def span(name, ts, seconds, track="w1", attrs=None, counters=None, path=None):
    event = {
        "v": 1,
        "kind": "span",
        "name": name,
        "path": path or name,
        "seconds": seconds,
        "ts": ts,
        "w": track,
    }
    if attrs:
        event["attrs"] = attrs
    if counters:
        event["counters"] = counters
    return event


def point(name, ts, track="w1", **attrs):
    return {
        "v": 1,
        "kind": "event",
        "name": name,
        "ts": ts,
        "w": track,
        "attrs": attrs,
    }


def counter(name, value, **labels):
    return {
        "v": 1,
        "kind": "metric",
        "type": "counter",
        "name": name,
        "labels": labels,
        "value": value,
    }


def by_phase(trace, phase):
    return [e for e in trace["traceEvents"] if e["ph"] == phase]


def test_track_id_mapping():
    assert _track_ids("w123") == (123, 0)
    assert _track_ids("w123.t456") == (123, 456)
    assert _track_ids("bogus") == (0, 0)
    assert _track_ids("wnope") == (0, 0)


def test_spans_become_rebased_complete_slices():
    trace = to_chrome_trace(
        [
            span("unit", ts=100.0, seconds=2.0, track="w7"),
            span("cell", ts=100.5, seconds=0.25, track="w7", path="unit/cell"),
        ]
    )
    slices = by_phase(trace, "X")
    assert [s["name"] for s in slices] == ["unit", "cell"]
    unit, cell = slices
    assert unit["ts"] == 0.0  # rebased to earliest event
    assert unit["dur"] == pytest.approx(2e6)
    assert cell["ts"] == pytest.approx(0.5e6)
    assert cell["dur"] == pytest.approx(0.25e6)
    assert (unit["pid"], unit["tid"]) == (7, 0)
    assert cell["args"]["path"] == "unit/cell"
    assert trace["otherData"]["skipped_untimestamped_events"] == 0


def test_span_args_carry_attrs_and_prefixed_counters():
    trace = to_chrome_trace(
        [
            span(
                "cell",
                ts=1.0,
                seconds=0.1,
                attrs={"model": "log_reg"},
                counters={"records": 3.0},
            )
        ]
    )
    (slice_,) = by_phase(trace, "X")
    assert slice_["args"]["model"] == "log_reg"
    assert slice_["args"]["counter:records"] == 3.0


def test_point_events_become_thread_instants():
    trace = to_chrome_trace([point("heartbeat", ts=5.0, phase="cell_done")])
    (instant,) = by_phase(trace, "i")
    assert instant["s"] == "t"
    assert instant["args"]["phase"] == "cell_done"


def test_each_track_gets_process_and_thread_metadata():
    trace = to_chrome_trace(
        [
            span("cell", ts=1.0, seconds=0.1, track="w2"),
            span("cell", ts=1.0, seconds=0.1, track="w2.t9"),
        ]
    )
    meta = {(m["name"], m["pid"], m["tid"]): m["args"]["name"] for m in by_phase(trace, "M")}
    assert meta[("process_name", 2, 0)] == "w2"
    assert meta[("thread_name", 2, 0)] == "w2"
    assert meta[("thread_name", 2, 9)] == "w2.t9"


def test_counters_become_counter_samples_and_older_metric_types_are_skipped():
    trace = to_chrome_trace(
        [
            span("cell", ts=1.0, seconds=2.0),
            counter("timeouts", 1.0),
            counter("timeouts", 2.0),
            counter("cache_hit", 5.0, cache="featurizer"),
            {
                "v": 1,
                "kind": "metric",
                "type": "gauge",
                "name": "rss_bytes",
                "labels": {},
                "value": 123.0,
            },
            {
                "v": 1,
                "kind": "metric",
                "type": "histogram",
                "name": "seconds",
                "labels": {},
                "buckets": [1.0],
                "counts": [1, 0],
                "sum": 0.5,
                "count": 1,
            },
        ]
    )
    samples = {c["name"]: c for c in by_phase(trace, "C")}
    assert samples["timeouts"]["args"]["value"] == 3.0  # merged across shards
    assert samples["cache_hit{cache=featurizer}"]["args"]["value"] == 5.0
    # the gauge and histogram lines of older traces export nothing
    assert set(samples) == {"timeouts", "cache_hit{cache=featurizer}"}
    # counter samples land at the end of the timeline (the last span end)
    assert samples["timeouts"]["ts"] == pytest.approx(2e6)


def test_untimestamped_legacy_events_are_skipped_and_counted():
    legacy = {"v": 1, "kind": "span", "name": "cell", "path": "cell", "seconds": 0.1}
    trace = to_chrome_trace([legacy, span("unit", ts=1.0, seconds=0.5)])
    assert [s["name"] for s in by_phase(trace, "X")] == ["unit"]
    assert trace["otherData"]["skipped_untimestamped_events"] == 1


def test_export_trace_round_trips_through_files(tmp_path):
    trace_path = tmp_path / "study.trace.jsonl"
    with trace_path.open("w") as handle:
        for event in (
            span("unit", ts=1.0, seconds=0.5),
            point("heartbeat", ts=1.2, phase="unit_start"),
            counter("timeouts", 1.0),
        ):
            handle.write(json.dumps(event) + "\n")
    out = tmp_path / "out" / "study.chrome.json"
    n_events = export_trace([trace_path], out)
    payload = json.loads(out.read_text())
    assert len(payload["traceEvents"]) == n_events
    phases = sorted({e["ph"] for e in payload["traceEvents"]})
    assert phases == ["C", "M", "X", "i"]
    assert payload["displayTimeUnit"] == "ms"
