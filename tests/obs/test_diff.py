"""Tests for cross-run regression diffs (repro.obs.diff)."""

import json
import math

import pytest

from repro.obs import build_health, diff_runs, diff_stores, render_diff


def span(name, seconds):
    return {"v": 1, "kind": "span", "name": name, "path": name, "seconds": seconds}


def counter(name, value, **labels):
    return {
        "v": 1,
        "kind": "metric",
        "type": "counter",
        "name": name,
        "labels": labels,
        "value": value,
    }


def entries_by_name(diff):
    return {f"{entry.kind}:{entry.name}": entry for entry in diff.entries}


# -- span stats: build_health's phase totals ---------------------------


def test_span_stats_quantiles_nearest_rank():
    events = [span("cell", float(i)) for i in range(1, 101)]  # 1..100
    stats = build_health(events).phase_totals["cell"]
    assert stats["count"] == 100.0
    assert stats["seconds"] / stats["count"] == pytest.approx(50.5)
    assert stats["p50"] == 50.0
    assert stats["p95"] == 95.0
    assert stats["seconds"] == pytest.approx(5050.0)


def test_span_stats_single_observation():
    stats = build_health([span("unit", 2.0)]).phase_totals["unit"]
    assert stats["p50"] == stats["p95"] == stats["seconds"] / stats["count"] == 2.0


def test_span_stats_ignores_non_span_events():
    assert build_health([counter("timeouts", 1.0)]).phase_totals == {}


# -- diff_runs ----------------------------------------------------------


def test_flags_only_changes_clearing_both_thresholds():
    # 20 identical baseline cells at 1.0s; candidate regresses to 2.0s
    a = [span("cell", 1.0) for _ in range(20)]
    b = [span("cell", 2.0) for _ in range(20)]
    diff = diff_runs(a, b)
    entry = entries_by_name(diff)["span:cell.mean_seconds"]
    assert entry.flagged
    assert entry.ratio == pytest.approx(2.0)
    assert entry.delta == pytest.approx(1.0)


def test_small_absolute_changes_are_noise_even_when_relative_is_large():
    # 3x relative change but only 2ms absolute: below min_seconds
    diff = diff_runs([span("tune", 0.001)], [span("tune", 0.003)])
    entry = entries_by_name(diff)["span:tune.mean_seconds"]
    assert not entry.flagged
    assert diff.flagged == []


def test_small_relative_changes_are_noise_even_when_absolute_is_large():
    diff = diff_runs([span("unit", 100.0)], [span("unit", 104.0)])  # +4%
    assert diff.flagged == []


def test_threshold_and_floor_are_tunable():
    a, b = [span("unit", 100.0)], [span("unit", 104.0)]
    assert diff_runs(a, b, threshold=0.03).flagged
    diff = diff_runs([span("tune", 0.001)], [span("tune", 0.003)], min_seconds=0.0001)
    assert entries_by_name(diff)["span:tune.mean_seconds"].flagged


def test_new_and_vanished_spans():
    diff = diff_runs([span("old", 1.0)], [span("new", 1.0)])
    by_name = entries_by_name(diff)
    appeared = by_name["span:new.mean_seconds"]
    vanished = by_name["span:old.mean_seconds"]
    assert appeared.flagged and math.isinf(appeared.ratio)
    assert vanished.flagged and vanished.ratio == 0.0


def test_counter_changes_respect_min_count():
    a = [counter("timeouts", 1.0)]
    b = [counter("timeouts", 3.0)]
    diff = diff_runs(a, b)
    entry = entries_by_name(diff)["counter:timeouts"]
    assert entry.flagged and entry.delta == 2.0
    # +0.5 of a counter is sub-integral noise
    assert not entries_by_name(
        diff_runs([counter("timeouts", 1.0)], [counter("timeouts", 1.5)])
    )["counter:timeouts"].flagged


def test_cache_hit_rate_compares_in_absolute_points():
    a = [counter("cache_hit", 90.0, cache="featurizer"),
         counter("cache_miss", 10.0, cache="featurizer")]
    b = [counter("cache_hit", 50.0, cache="featurizer"),
         counter("cache_miss", 50.0, cache="featurizer")]
    diff = diff_runs(a, b)
    entry = entries_by_name(diff)["cache:featurizer.hit_rate"]
    assert entry.flagged
    assert entry.a == pytest.approx(0.9)
    assert entry.b == pytest.approx(0.5)
    # a 2-point shift stays quiet
    c = [counter("cache_hit", 88.0, cache="featurizer"),
         counter("cache_miss", 12.0, cache="featurizer")]
    assert not entries_by_name(diff_runs(a, c))["cache:featurizer.hit_rate"].flagged


def test_identical_runs_flag_nothing():
    events = [span("cell", 1.0), span("unit", 3.0), counter("timeouts", 2.0)]
    diff = diff_runs(events, events)
    assert diff.flagged == []
    assert all(entry.ratio == 1.0 for entry in diff.entries)


def test_diff_to_json_is_serialisable():
    payload = diff_runs([span("cell", 1.0)], [span("cell", 5.0)]).to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["flagged"] >= 1
    assert {"kind", "name", "a", "b", "delta", "ratio", "flagged"} <= set(
        payload["entries"][0]
    )


def test_render_diff_flagged_only_and_all():
    diff = diff_runs(
        [span("cell", 1.0), span("unit", 3.0)],
        [span("cell", 5.0), span("unit", 3.0)],
    )
    flagged_view = render_diff(diff)
    assert "span:cell.mean_seconds" in flagged_view
    assert "unit.mean_seconds" not in flagged_view
    full_view = render_diff(diff, all_entries=True)
    assert "span:unit.mean_seconds" in full_view
    assert "<-- flagged" in full_view


def test_render_diff_quiet_runs():
    text = render_diff(diff_runs([span("cell", 1.0)], [span("cell", 1.0)]))
    assert "no changes beyond the noise thresholds" in text


def test_diff_stores_reads_trace_files(tmp_path):
    path_a = tmp_path / "a.trace.jsonl"
    path_b = tmp_path / "b.trace.jsonl"
    path_a.write_text(json.dumps(span("cell", 1.0)) + "\n")
    path_b.write_text(json.dumps(span("cell", 5.0)) + "\n")
    diff = diff_stores([path_a], [path_b])
    assert entries_by_name(diff)["span:cell.mean_seconds"].flagged
