"""Tests for the counter registry and its deterministic merge."""

import itertools

from repro.obs import MetricsRegistry, merge_metric_events


def test_counter_accumulates_per_label_set():
    registry = MetricsRegistry()
    registry.counter("cache_hit", cache="featurizer")
    registry.counter("cache_hit", 2.0, cache="featurizer")
    registry.counter("cache_hit", cache="masks")
    snapshot = registry.snapshot()
    values = {
        (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
        for s in snapshot
    }
    assert values[("cache_hit", (("cache", "featurizer"),))] == 3.0
    assert values[("cache_hit", (("cache", "masks"),))] == 1.0


def test_drain_resets_registry():
    registry = MetricsRegistry()
    registry.counter("hits")
    assert len(registry.drain()) == 1
    assert registry.drain() == []


def test_snapshot_order_is_deterministic():
    first = MetricsRegistry()
    second = MetricsRegistry()
    for registry, order in ((first, (1, 2)), (second, (2, 1))):
        for index in order:
            registry.counter(f"c{index}")
            registry.counter("c", worker=f"w{index}")
    assert first.snapshot() == second.snapshot()


# -- merge --------------------------------------------------------------


def counter_event(name, value, **labels):
    return {"type": "counter", "name": name, "labels": labels, "value": value}


def gauge_event(name, value, **labels):
    return {"type": "gauge", "name": name, "labels": labels, "value": value}


#: A histogram metric line as older traces wrote it.
HISTOGRAM_EVENT = {
    "type": "histogram",
    "name": "candidate_fit_seconds",
    "labels": {},
    "buckets": [0.1, 1.0],
    "counts": [1, 0, 0],
    "sum": 0.05,
    "count": 1,
}


def test_merge_sums_counters_across_shards():
    merged = merge_metric_events(
        [
            counter_event("cache_hit", 2.0, cache="featurizer"),
            counter_event("cache_hit", 3.0, cache="featurizer"),
            counter_event("cache_hit", 1.0, cache="masks"),
        ]
    )
    values = {
        (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
        for s in merged
    }
    assert values[("cache_hit", (("cache", "featurizer"),))] == 5.0
    assert values[("cache_hit", (("cache", "masks"),))] == 1.0


def test_merge_skips_gauges_and_histograms_of_older_traces():
    merged = merge_metric_events(
        [
            gauge_event("shm_live_segments", 2.0),
            HISTOGRAM_EVENT,
            counter_event("hits", 1.0),
        ]
    )
    assert merged == [
        {"type": "counter", "name": "hits", "labels": {}, "value": 1.0}
    ]


def test_merge_is_deterministic_and_idempotent_shape():
    events = [
        counter_event("b", 1.0),
        counter_event("a", 1.0, x="1"),
        counter_event("a", 2.0, x="1"),
    ]
    once = merge_metric_events(events)
    # merging the merged output again changes nothing
    assert merge_metric_events(once) == once
    assert [s["name"] for s in once] == ["a", "b"]


def test_merge_is_invariant_under_event_permutation():
    events = [
        counter_event("hits", 2.0, cache="x"),
        counter_event("hits", 3.0, cache="x"),
        counter_event("misses", 1.0),
        gauge_event("rss_bytes", 900.0, worker="a"),
        HISTOGRAM_EVENT,
        counter_event("hits", 0.5, cache="y"),
    ]
    baseline = merge_metric_events(events)
    for permutation in itertools.permutations(events):
        assert merge_metric_events(list(permutation)) == baseline
