"""Trace sidecars written by older versions still read.

Older traces carry two metric types the tracer no longer writes
(``gauge`` and ``histogram`` lines) and memory samples on spans
(``mem_delta_bytes`` / ``rss_bytes`` attributes). Every trace reader
must skip them, and compaction must drop them without losing its
byte-identity under shard-name permutation.
"""

import itertools
import json

from repro.__main__ import main
from repro.benchmark import ResultStore
from repro.obs import read_trace_events

UNIT = {"dataset": "german", "error_type": "mislabels", "repetition": 0}


def write_events(path, events):
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def span(name, ts, track, **attrs):
    return {
        "v": 1,
        "kind": "span",
        "name": name,
        "path": name,
        "seconds": 0.25,
        "ts": ts,
        "w": track,
        "attrs": attrs,
    }


def heartbeat(ts, track, phase, **attrs):
    return {
        "v": 1,
        "kind": "event",
        "name": "heartbeat",
        "ts": ts,
        "w": track,
        "attrs": {"phase": phase, **attrs},
    }


def metric(kind, name, **fields):
    return {"v": 1, "kind": "metric", "type": kind, "name": name, "labels": {}, **fields}


def gauge(name, value):
    return metric("gauge", name, value=value)


def histogram(name):
    return metric(
        "histogram",
        name,
        buckets=[0.1, 1.0],
        counts=[1, 1, 0],
        sum=0.6,
        count=2,
    )


PARENT_EVENTS = [
    {
        "v": 1,
        "kind": "event",
        "name": "planned",
        "ts": 100.0,
        "w": "w1",
        "attrs": {"units": 1, "cells": 2, "workers": 2, "backend": "process"},
    },
    {"v": 1, "kind": "event", "name": "unit_merged", "ts": 110.0, "w": "w1",
     "attrs": {**UNIT, "records": 2}},
    histogram("unit_result_latency_seconds"),
    metric("counter", "units_merged", value=1.0),
]


def shard_events(track, model, ts):
    return [
        span("cell", ts, track, model=model, mem_delta_bytes=4096, rss_bytes=9e7,
             **UNIT),
        heartbeat(ts + 0.5, track, "cell_done", model=model, seconds=0.25, **UNIT),
        gauge("rss_bytes", 9e7),
        gauge("shm_live_segments", 2.0),
        histogram("candidate_fit_seconds"),
        metric("counter", "cache_hit", value=3.0),
    ]


WORKER_EVENTS = [
    shard_events("w2", "log_reg", 101.0),
    shard_events("w3", "knn", 102.0),
    [histogram("candidate_fit_seconds"), metric("counter", "cache_hit", value=1.0)],
]


def write_old_run(directory, shard_names=("w2", "w3", "w4")):
    store_path = directory / "study.json"
    write_events(directory / "study.trace.jsonl", PARENT_EVENTS)
    for name, events in zip(shard_names, WORKER_EVENTS):
        write_events(directory / f"study.trace.{name}.jsonl", events)
    return store_path


def test_every_trace_reader_exits_zero_on_an_old_format_trace(tmp_path, capsys):
    store = str(write_old_run(tmp_path))
    assert main(["obs-report", store, "--json"]) == 0
    health = json.loads(capsys.readouterr().out)
    assert health["cells_done"] == 2
    assert health["counters"] == {"cache_hit": 7.0, "units_merged": 1.0}
    assert health["complete"] is True
    assert main(["obs-report", store, "--follow"]) == 0
    assert "[COMPLETE]" in capsys.readouterr().out
    assert main(["obs-export", store]) == 0
    capsys.readouterr()
    chrome = json.loads((tmp_path / "study.trace.chrome.json").read_text())
    samples = {e["name"] for e in chrome["traceEvents"] if e["ph"] == "C"}
    assert samples == {"cache_hit", "units_merged"}
    assert main(["obs-diff", store, store, "--fail-on-regression"]) == 0


def test_compaction_keeps_only_counter_metric_lines(tmp_path):
    store = ResultStore(write_old_run(tmp_path))
    store.compact_trace()
    assert store.trace_paths() == [store.trace_path]
    metrics = [
        event
        for event in read_trace_events([store.trace_path])
        if event["kind"] == "metric"
    ]
    assert [(m["type"], m["name"], m["value"]) for m in metrics] == [
        ("counter", "cache_hit", 7.0),
        ("counter", "units_merged", 1.0),
    ]


def test_compacted_old_trace_is_byte_identical_under_shard_permutation(tmp_path):
    compacted = set()
    for index, names in enumerate(itertools.permutations(("w2", "w3.t7", "w9"))):
        directory = tmp_path / f"perm{index}"
        directory.mkdir()
        store = ResultStore(write_old_run(directory, names))
        store.compact_trace()
        compacted.add(store.trace_path.read_bytes())
    assert len(compacted) == 1
