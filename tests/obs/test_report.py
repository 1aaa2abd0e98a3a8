"""Tests for run-health folding and the plain-text report."""

import json

from repro.obs import (
    build_health,
    load_health,
    render_health_report,
    RunHealth,
)


def span_event(name, seconds=0.1, attrs=None, counters=None):
    event = {"v": 1, "kind": "span", "name": name, "path": name, "seconds": seconds}
    if attrs:
        event["attrs"] = attrs
    if counters:
        event["counters"] = counters
    return event


def point_event(name, **attrs):
    return {"v": 1, "kind": "event", "name": name, "attrs": attrs}


def cell(dataset="german", repetition=0, model="log_reg", seed=0, seconds=0.1):
    return span_event(
        "cell",
        seconds=seconds,
        attrs={
            "dataset": dataset,
            "error_type": "mislabels",
            "repetition": repetition,
            "model": model,
            "seed": seed,
        },
    )


SYNTHETIC_EVENTS = [
    span_event("unit", seconds=1.0),
    cell(repetition=0, seconds=0.4),
    cell(repetition=1, model="knn", seconds=0.6),
    span_event(
        "detect",
        seconds=0.2,
        attrs={"detector": "cleanlab"},
        counters={"flagged": 40},
    ),
    span_event("repair", seconds=0.05, attrs={"repair": "flip_labels"}),
    span_event(
        "tune",
        seconds=0.3,
        attrs={"model": "LogisticRegressionClassifier", "fast_path": True},
        counters={"fit_seconds": 0.25, "score_seconds": 0.02},
    ),
    span_event(
        "tune",
        seconds=0.3,
        attrs={"model": "DecisionTreeClassifier", "fast_path": False},
        counters={"fit_seconds": 0.2, "score_seconds": 0.01},
    ),
    point_event(
        "retry", dataset="german", attempt=1, error="CellTimeoutError: slow"
    ),
    point_event("retry", dataset="german", attempt=2, error="RuntimeError: x"),
    point_event(
        "poison", dataset="german", attempts=3, error="RuntimeError: dead"
    ),
    point_event("backoff_sleep", seconds=0.5),
    point_event("backoff_sleep", seconds=0.25),
    point_event("fault_injected", fault="crash_pre_append"),
    point_event("fault_injected", fault="crash_pre_append"),
    point_event("fault_injected", fault="slow_cell"),
    {
        "v": 1,
        "kind": "metric",
        "type": "counter",
        "name": "cache_hit",
        "labels": {"cache": "featurizer"},
        "value": 3.0,
    },
    {
        "v": 1,
        "kind": "metric",
        "type": "counter",
        "name": "cache_miss",
        "labels": {"cache": "featurizer"},
        "value": 1.0,
    },
    {
        "v": 1,
        "kind": "metric",
        "type": "counter",
        "name": "timeouts",
        "labels": {},
        "value": 1.0,
    },
]


def test_build_health_folds_all_event_kinds():
    health = build_health(SYNTHETIC_EVENTS)
    assert health.n_events == len(SYNTHETIC_EVENTS)
    assert health.phase_totals["cell"] == {
        "count": 2,
        "seconds": 1.0,
        "p50": 0.4,
        "p95": 0.6,
    }
    assert health.model_seconds == {"log_reg": 0.4, "knn": 0.6}
    assert health.detector_stats["cleanlab"]["flagged"] == 40
    assert health.repair_stats["flip_labels"]["count"] == 1
    assert health.tuning["fit_seconds"] == 0.45
    assert health.tuning["fast_path"] == 1
    assert health.tuning["naive"] == 1
    assert health.retries == 2
    assert health.poisoned == 1
    assert health.timeouts == 1  # only the CellTimeoutError retry
    assert health.backoff_seconds == 0.75
    assert health.faults == {"crash_pre_append": 2, "slow_cell": 1}
    assert health.cache["featurizer"]["hit_rate"] == 0.75
    assert health.counters["timeouts"] == 1.0
    assert health.counters["cache_hit{cache=featurizer}"] == 3.0


def test_slowest_cells_sorted_descending():
    health = build_health(SYNTHETIC_EVENTS)
    assert [c["seconds"] for c in health.slowest_cells] == [0.6, 0.4]
    assert health.slowest_cells[0]["model"] == "knn"


def test_failures_count_as_poisoned():
    failure = {
        "dataset": "german",
        "error_type": "mislabels",
        "repetition": 1,
        "attempts": 3,
        "error": "RuntimeError: boom",
    }
    health = build_health([], failures=[failure])
    assert health.poisoned == 1
    assert health.failures == [failure]


def test_empty_health_renders_without_sections():
    report = render_health_report(build_health([]))
    assert report.startswith("RUN HEALTH")
    assert "Phase totals" not in report
    assert "Slowest cells" not in report


def test_render_contains_every_populated_section():
    failure = {"dataset": "adult", "attempts": 3, "error": "boom"}
    report = render_health_report(build_health(SYNTHETIC_EVENTS, [failure]))
    for heading in (
        "Phase totals",
        "Cell time by model",
        "Detectors",
        "Repairs",
        "Hyperparameter tuning",
        "Caches",
        "Slowest cells (top 10)",
        "Injected faults observed",
        "Poisoned work units",
    ):
        assert heading in report, heading
    assert "fast-path searches: 1" in report
    assert "naive searches: 1" in report
    assert "75.0%" in report  # featurizer hit rate


def test_render_top_limits_cell_rows():
    events = [cell(repetition=i, seconds=float(i + 1)) for i in range(5)]
    report = render_health_report(build_health(events), top=2)
    assert "Slowest cells (top 2)" in report
    assert report.count("german/mislabels/") == 2
    assert "german/mislabels/4" in report and "german/mislabels/3" in report
    assert "german/mislabels/2" not in report


def test_to_json_is_json_serialisable():
    health = build_health(SYNTHETIC_EVENTS)
    payload = json.loads(json.dumps(health.to_json()))
    assert payload["retries"] == 2
    assert payload["faults"]["slow_cell"] == 1


def test_load_health_reads_shards_and_sidecar(tmp_path):
    trace = tmp_path / "t.trace.jsonl"
    with trace.open("w") as handle:
        for event in SYNTHETIC_EVENTS:
            handle.write(json.dumps(event) + "\n")
        handle.write('{"kind":"span","torn')  # crash-torn tail
    failures = tmp_path / "t.failures.jsonl"
    failures.write_text(
        json.dumps({"dataset": "german", "attempts": 3, "error": "x"}) + "\n"
    )
    health = load_health([trace], failures)
    assert health.n_events == len(SYNTHETIC_EVENTS)
    # the poison event and the sidecar entry name the same unit
    assert health.poisoned == 1


def test_default_run_health_is_empty():
    health = RunHealth()
    assert health.n_events == 0
    assert health.to_json()["phase_totals"] == {}
    assert health.to_json()["untraced"] is False


def fairness_point(model="log_reg"):
    """A per-cell ``fairness`` event as older traces carry it."""
    return point_event(
        "fairness",
        dataset="german",
        error_type="mislabels",
        detection="cleanlab",
        repair="flip_labels",
        model=model,
        repetition=0,
        seed=0,
        acc={"dirty": 0.8, "repaired": 0.7},
        groups={
            "sex": {"DP": [0.05, 0.30], "EO": [0.10, 0.05]},
            "age": {"DP": [0.02, None]},
        },
    )


def test_build_health_folds_fairness_events():
    """Traces written before the per-cell ``fairness`` event was dropped
    still fold: the events count in ``n_events`` and change nothing else."""
    legacy = [fairness_point(), fairness_point(model="knn")]
    health = build_health([*SYNTHETIC_EVENTS, *legacy]).to_json()
    plain = build_health(SYNTHETIC_EVENTS).to_json()
    assert health.pop("n_events") == plain.pop("n_events") + 2
    assert health == plain
    assert not any("fairness" in key for key in health)


def test_poisoned_unit_counts_once_across_event_and_sidecar():
    unit = {"dataset": "german", "error_type": "mislabels", "repetition": 1}
    other = {"dataset": "german", "error_type": "mislabels", "repetition": 2}
    events = [
        point_event("poison", attempts=2, error="RuntimeError: x", **unit),
        point_event("poison", attempts=2, error="RuntimeError: x", **unit),
    ]
    failures = [{**unit, "attempts": 2}, {**other, "attempts": 2}]
    assert build_health(events).poisoned == 1
    assert build_health([], failures).poisoned == 2
    assert build_health(events, failures).poisoned == 2


def test_build_health_folds_progress_state():
    def at(ts, track, event):
        return {**event, "ts": ts, "w": track}

    done = {"dataset": "german", "error_type": "mislabels", "model": "knn"}
    events = [
        at(5.0, "w1", point_event("planned", units=2, cells=4, workers=2,
                                  backend="process", transport="pickle")),
        at(6.0, "w2", point_event("heartbeat", phase="cell_start")),
        at(9.0, "w2", point_event("heartbeat", phase="cell_done",
                                  seconds=3.0, **done)),
        at(7.0, "w2", point_event("heartbeat", phase="cell_start")),
        at(8.0, "w1", point_event("unit_merged", records=2)),
        point_event("heartbeat", phase="unit_start"),  # untimed: out of scope
    ]
    health = build_health(events)
    assert health.planned == {
        "units": 2, "cells": 4, "workers": 2, "backend": "process"
    }
    assert (health.cells_started, health.cells_done) == (2, 1)
    assert (health.units_merged, health.records_merged) == (1, 2)
    assert health.heartbeats == 3
    assert health.throughput == {
        ("german", "mislabels", "knn"): {
            "cells": 1.0, "seconds": 3.0, "cells_per_second": 1 / 3.0
        }
    }
    # the newest heartbeat wins even when an older one is read later
    assert health.tracks["w2"] == {
        "last_ts": 9.0, "last_phase": "cell_done", "cells_done": 1
    }
    assert list(health.tracks) == ["w2"]
    assert (health.first_ts, health.last_ts) == (5.0, 9.0)
    payload = health.to_json()
    assert list(payload["throughput"]) == ["german/mislabels/knn"]


def test_build_health_folds_only_the_newest_run():
    """Spans and point events older than the newest ``planned`` event
    belong to an earlier run and are dropped; a sidecar entry counts
    only if the newest run poisoned its unit; counters cover all runs."""
    def at(ts, event):
        return {**event, "ts": ts, "w": "w1"}

    rep0 = {"dataset": "german", "error_type": "mislabels", "repetition": 0}
    rep1 = {**rep0, "repetition": 1}
    counter = {"v": 1, "kind": "metric", "type": "counter", "name": "cache_hit",
               "labels": {"cache": "masks"}, "value": 2.0}
    events = [
        at(10.0, point_event("planned", units=1, cells=1)),
        at(11.0, span_event("cell", seconds=5.0, attrs=rep0)),
        at(12.0, point_event("heartbeat", phase="cell_done", **rep0)),
        at(13.0, point_event("poison", error="RuntimeError: x", **rep0)),
        counter,
        at(20.0, point_event("planned", units=2, cells=2)),
        at(21.0, point_event("heartbeat", phase="cell_done", **rep0)),
        at(22.0, point_event("unit_merged", records=1, **rep0)),
        counter,
    ]
    stale = {**rep0, "pending_cells": [["log_reg", 0]]}
    health = build_health(events, [stale])
    assert health.runs == 2
    assert health.planned["cells"] == 2
    assert (health.cells_done, health.units_merged) == (1, 1)
    assert health.phase_totals == {}
    assert (health.poisoned, health.cells_poisoned, health.failures) == (0, 0, [])
    assert not health.complete and health.remaining_cells == 1
    assert health.first_ts == 20.0
    assert health.cache["masks"]["hits"] == 4.0
    assert "Caches (all runs)" in render_health_report(health)
    # the newest run's own poisoning counts, with its sidecar entry
    events.append(at(23.0, point_event("poison", error="RuntimeError: y", **rep1)))
    fresh = {**rep1, "pending_cells": [["log_reg", 0]]}
    health = build_health(events, [stale, fresh])
    assert (health.poisoned, health.cells_poisoned) == (1, 1)
    assert health.failures == [fresh] and health.complete
    # a trace without planned events folds whole
    unplanned = [e for e in events if e.get("name") != "planned"]
    health = build_health(unplanned, [stale, fresh])
    assert (health.runs, health.cells_done, health.poisoned) == (0, 2, 2)
    assert health.phase_totals["cell"]["count"] == 1


def test_render_untraced_banner():
    health = build_health([])
    health.untraced = True
    assert "untraced" in render_health_report(health).lower()


# -- S2: byte-stable JSON output --------------------------------------


def test_to_json_is_byte_stable_under_event_permutation():
    """`obs-report --json` must emit identical bytes regardless of the
    shard order events are read in."""
    events = [
        *SYNTHETIC_EVENTS,
        fairness_point(),
        fairness_point(model="knn"),
        {
            "v": 1,
            "kind": "metric",
            "type": "gauge",
            "name": "rss_bytes",
            "labels": {"site": "cell"},
            "value": 123.0,
        },
    ]
    forward = build_health(events).to_json()
    backward = build_health(list(reversed(events))).to_json()
    # reversal changes per-shard arrival order; scalar sums, dict key
    # order and list tiebreaks must all still line up byte-for-byte
    forward.pop("n_events"), backward.pop("n_events")
    assert json.dumps(forward, sort_keys=True) == json.dumps(
        backward, sort_keys=True
    )


def test_to_json_dict_keys_are_sorted_recursively():
    health = build_health([*SYNTHETIC_EVENTS, fairness_point()])
    payload = health.to_json()

    def assert_sorted(value, path="$"):
        if isinstance(value, dict):
            assert list(value) == sorted(value), path
            for key, child in value.items():
                assert_sorted(child, f"{path}.{key}")
        elif isinstance(value, list):
            for index, child in enumerate(value):
                assert_sorted(child, f"{path}[{index}]")

    assert_sorted(payload)


def test_slowest_cell_ties_break_deterministically():
    ties = [
        cell(repetition=i, model=model, seconds=0.5)
        for model in ("log_reg", "knn")
        for i in range(2)
    ]
    forward = build_health(ties).to_json()["slowest_cells"]
    backward = build_health(list(reversed(ties))).to_json()["slowest_cells"]
    assert forward == backward
