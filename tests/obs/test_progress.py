"""Tests for the in-flight progress scanner (repro.obs.progress)."""

import json

import pytest

from repro.obs import (
    ProgressSnapshot,
    load_health,
    render_health_report,
    render_progress,
    scan_run,
)
from repro.obs.progress import monitor_run, trace_files


def write_events(path, events):
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


def planned_event(ts, units, cells, workers=2, backend="process"):
    return {
        "v": 1,
        "kind": "event",
        "name": "planned",
        "ts": ts,
        "w": "w1",
        "attrs": {
            "units": units,
            "cells": cells,
            "workers": workers,
            "backend": backend,
            "transport": "pickle",
        },
    }


def heartbeat_event(ts, track, phase, **attrs):
    return {
        "v": 1,
        "kind": "event",
        "name": "heartbeat",
        "ts": ts,
        "w": track,
        "attrs": {"phase": phase, **attrs},
    }


def unit_merged_event(ts, records):
    return {
        "v": 1,
        "kind": "event",
        "name": "unit_merged",
        "ts": ts,
        "w": "w1",
        "attrs": {
            "dataset": "german",
            "error_type": "mislabels",
            "repetition": 0,
            "records": records,
        },
    }


@pytest.fixture
def run_dir(tmp_path):
    """A synthetic in-flight run: 2 workers, 4 planned cells, 2 done."""
    store_path = tmp_path / "study.json"
    write_events(
        tmp_path / "study.trace.jsonl",
        [planned_event(100.0, units=2, cells=4), unit_merged_event(130.0, 1)],
    )
    write_events(
        tmp_path / "study.trace.w2.jsonl",
        [
            heartbeat_event(101.0, "w2", "unit_start", n_cells=2),
            heartbeat_event(
                102.0, "w2", "cell_start", dataset="german",
                error_type="mislabels", model="log_reg",
            ),
            heartbeat_event(
                110.0, "w2", "cell_done", dataset="german",
                error_type="mislabels", model="log_reg", seconds=8.0,
            ),
        ],
    )
    write_events(
        tmp_path / "study.trace.w3.jsonl",
        [
            heartbeat_event(101.0, "w3", "unit_start", n_cells=2),
            heartbeat_event(
                120.0, "w3", "cell_done", dataset="german",
                error_type="mislabels", model="knn", seconds=19.0,
            ),
        ],
    )
    return store_path


def test_scan_counts_cells_and_units(run_dir):
    snapshot = scan_run(run_dir, now=125.0)
    assert snapshot.planned_units == 2
    assert snapshot.planned_cells == 4
    assert snapshot.workers_planned == 2
    assert snapshot.backend == "process"
    assert snapshot.cells_started == 1
    assert snapshot.cells_done == 2
    assert snapshot.units_merged == 1
    assert snapshot.records_merged == 1
    assert snapshot.heartbeats == 5
    assert not snapshot.complete


def test_scan_throughput_and_eta(run_dir):
    snapshot = scan_run(run_dir, now=125.0)
    assert snapshot.started_ts == 100.0
    assert snapshot.elapsed == pytest.approx(25.0)
    assert snapshot.cells_per_second == pytest.approx(2 / 25.0)
    # 2 remaining cells at 0.08 cells/s
    assert snapshot.eta_seconds == pytest.approx(25.0)
    key = ("german", "mislabels", "log_reg")
    assert snapshot.throughput[key]["cells"] == 1
    assert snapshot.throughput[key]["cells_per_second"] == pytest.approx(1 / 8.0)


def test_scan_detects_stalled_worker(run_dir):
    snapshot = scan_run(run_dir, now=200.0, stall_after=60.0)
    by_track = {worker.track: worker for worker in snapshot.workers}
    assert by_track["w2"].stalled  # last heartbeat at 110 -> age 90
    assert by_track["w3"].age == pytest.approx(80.0)
    assert by_track["w3"].stalled
    assert by_track["w2"].cells_done == 1
    assert by_track["w2"].last_phase == "cell_done"


def test_scan_complete_run_reports_no_stalls(tmp_path):
    store_path = tmp_path / "study.json"
    write_events(
        tmp_path / "study.trace.jsonl",
        [
            planned_event(100.0, units=1, cells=1),
            heartbeat_event(
                101.0, "w1", "cell_done", dataset="german",
                error_type="mislabels", model="log_reg", seconds=1.0,
            ),
        ],
    )
    snapshot = scan_run(store_path, now=10_000.0)
    assert snapshot.complete
    assert snapshot.eta_seconds is None
    assert all(not worker.stalled for worker in snapshot.workers)


def test_poisoned_cells_count_toward_completion(tmp_path):
    store_path = tmp_path / "study.json"
    write_events(
        tmp_path / "study.trace.jsonl", [planned_event(100.0, units=2, cells=2)]
    )
    (tmp_path / "study.failures.jsonl").write_text(
        json.dumps(
            {
                "dataset": "german",
                "error_type": "mislabels",
                "repetition": 0,
                "attempts": 3,
                "error": "RuntimeError: dead",
                "pending_cells": [["log_reg", 0], ["knn", 0]],
            }
        )
        + "\n"
    )
    snapshot = scan_run(store_path, now=200.0)
    assert snapshot.cells_poisoned == 2
    assert snapshot.complete  # nothing left to wait for


def test_re_poisoned_unit_counts_once(tmp_path):
    """A re-run that poisons the same 1-cell unit again appends a second
    sidecar entry; the fold keeps the newest, so the unit counts once."""
    store_path = tmp_path / "study.json"
    write_events(
        tmp_path / "study.trace.jsonl", [planned_event(100.0, units=1, cells=1)]
    )
    failure = {
        "dataset": "german",
        "error_type": "mislabels",
        "repetition": 0,
        "pending_cells": [["log_reg", 0]],
    }
    failures = tmp_path / "study.failures.jsonl"
    failures.write_text(
        json.dumps({**failure, "attempts": 2, "error": "RuntimeError: first"})
        + "\n"
        + json.dumps({**failure, "attempts": 3, "error": "RuntimeError: second"})
        + "\n"
    )
    snapshot = scan_run(store_path, now=200.0)
    assert snapshot.cells_poisoned == 1
    assert snapshot.poisoned_units == 1
    health = load_health(trace_files(store_path), failures)
    assert [entry["error"] for entry in health.failures] == ["RuntimeError: second"]
    report = render_health_report(health)
    assert report.count("german/mislabels/0") == 1
    assert "RuntimeError: second" in report


def test_scan_counts_store_and_journal_records(run_dir, tmp_path):
    (tmp_path / "study.w2.jsonl").write_text(
        json.dumps({"dataset": "german", "metrics": {"acc": 0.7}}) + "\n"
        + '{"torn'  # in-flight torn tail is skipped, not fatal
    )
    snapshot = scan_run(run_dir, now=125.0)
    assert snapshot.journal_records == 1
    assert snapshot.store_records == 0


def test_leftover_ledger_sidecar_never_counts_as_journal_records(run_dir, tmp_path):
    """Older versions left ``{stem}.ledger.jsonl`` next to every store;
    the monitor never reads it, whatever its lines hold."""
    (tmp_path / "study.ledger.jsonl").write_text(
        json.dumps({"kind": "run", "metrics": {"acc": 0.7}}) + "\n"
    )
    assert scan_run(run_dir, now=125.0).journal_records == 0


def test_scan_empty_run(tmp_path):
    snapshot = scan_run(tmp_path / "study.json", now=1.0)
    assert isinstance(snapshot, ProgressSnapshot)
    assert snapshot.planned_cells == 0
    assert not snapshot.complete
    assert snapshot.workers == []


def test_render_progress_mentions_key_fields(run_dir):
    text = render_progress(scan_run(run_dir, now=200.0, stall_after=60.0))
    assert "cells: 2/4" in text
    assert "eta:" in text
    assert "german/mislabels/log_reg" in text
    assert "STALLED" in text


def test_snapshot_to_json_round_trips(run_dir):
    payload = scan_run(run_dir, now=125.0).to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["cells_done"] == 2
    assert payload["throughput"]["german/mislabels/log_reg"]["cells"] == 1
    assert payload["workers"][0]["track"] == "w2"


def test_monitor_run_once_and_until_complete(run_dir, tmp_path):
    lines = []
    snapshot = monitor_run(run_dir, once=True, emit=lines.append)
    assert not snapshot.complete
    assert lines and "cells:" in lines[0]
    # completing the run makes the polling loop exit on its own
    write_events(
        tmp_path / "study.trace.w4.jsonl",
        [
            heartbeat_event(
                121.0, "w4", "cell_done", dataset="german",
                error_type="mislabels", model="log_reg", seconds=1.0,
            ),
            heartbeat_event(
                122.0, "w4", "cell_done", dataset="german",
                error_type="mislabels", model="knn", seconds=1.0,
            ),
        ],
    )
    snapshot = monitor_run(run_dir, interval=0.01, emit=lambda _: None)
    assert snapshot.complete
    assert snapshot.cells_done == 4


def test_trace_files_lists_main_then_shards(run_dir, tmp_path):
    names = [path.name for path in trace_files(run_dir)]
    assert names[0] == "study.trace.jsonl"
    assert set(names[1:]) == {"study.trace.w2.jsonl", "study.trace.w3.jsonl"}


def fairness_event(ts, track="w2", **overrides):
    attrs = {
        "dataset": "german",
        "error_type": "mislabels",
        "detection": "cleanlab",
        "repair": "flip_labels",
        "model": "log_reg",
        "repetition": 0,
        "seed": 0,
        "acc": {"dirty": 0.8, "repaired": 0.7},
        "groups": {
            "sex": {"DP": [0.05, 0.25], "EO": [0.10, 0.05]},
            "age": {"DP": [0.02, None]},
        },
    }
    attrs.update(overrides)
    return {
        "v": 1,
        "kind": "event",
        "name": "fairness",
        "ts": ts,
        "w": track,
        "attrs": attrs,
    }


# -- S1 regression tests: ETA edge cases ------------------------------


def test_zero_elapsed_heartbeat_has_no_eta_and_no_crash(tmp_path):
    """A heartbeat burst at the planning timestamp must not divide by
    zero or report a rate/ETA."""
    store_path = tmp_path / "study.json"
    write_events(
        tmp_path / "study.trace.jsonl",
        [
            planned_event(100.0, units=2, cells=4),
            heartbeat_event(
                100.0, "w1", "cell_done", dataset="german",
                error_type="mislabels", model="log_reg", seconds=0.0,
            ),
        ],
    )
    snapshot = scan_run(store_path, now=100.0)
    assert snapshot.elapsed == 0.0
    assert snapshot.cells_per_second == 0.0
    assert snapshot.eta_seconds is None
    assert not snapshot.complete


def test_clock_skew_never_yields_negative_elapsed(tmp_path):
    store_path = tmp_path / "study.json"
    write_events(
        tmp_path / "study.trace.jsonl", [planned_event(100.0, units=1, cells=1)]
    )
    snapshot = scan_run(store_path, now=90.0)  # scanner clock behind writer
    assert snapshot.elapsed == 0.0
    assert snapshot.eta_seconds is None


def test_all_remaining_cells_poisoned_completes_without_eta(tmp_path):
    """Done + poisoned exceeding the plan (a retried unit poisoned
    after partial progress) must clamp: complete, no negative ETA,
    percent capped at 100 in the rendering."""
    store_path = tmp_path / "study.json"
    write_events(
        tmp_path / "study.trace.jsonl",
        [
            planned_event(100.0, units=2, cells=2),
            heartbeat_event(
                101.0, "w1", "cell_done", dataset="german",
                error_type="mislabels", model="log_reg", seconds=1.0,
            ),
        ],
    )
    (tmp_path / "study.failures.jsonl").write_text(
        json.dumps(
            {
                "dataset": "german",
                "error_type": "mislabels",
                "repetition": 0,
                "attempts": 3,
                "error": "RuntimeError: dead",
                "pending_cells": [["log_reg", 0], ["knn", 0]],
            }
        )
        + "\n"
    )
    snapshot = scan_run(store_path, now=200.0)
    assert snapshot.complete
    assert snapshot.eta_seconds is None
    assert "eta: -" in render_progress(snapshot)


def test_render_clamps_replayed_heartbeats_to_100_percent(tmp_path):
    """A resumed run can replay more cell_done heartbeats than this
    run planned; the display caps at 100% instead of overflowing."""
    store_path = tmp_path / "study.json"
    done = [
        heartbeat_event(
            101.0 + i, "w1", "cell_done", dataset="german",
            error_type="mislabels", model="log_reg", seconds=1.0,
        )
        for i in range(3)
    ]
    write_events(
        tmp_path / "study.trace.jsonl",
        [planned_event(100.0, units=1, cells=2), *done],
    )
    text = render_progress(scan_run(store_path, now=200.0))
    assert "cells: 3/2 (100%)" in text


# -- one fold: legacy fairness events, agreement with build_health -----


def test_scan_folds_fairness_events(run_dir, tmp_path):
    """``fairness`` events that older traces carry are folded as unknown
    events: the snapshot equals the one without them."""
    before = scan_run(run_dir, now=125.0).to_json()
    write_events(
        tmp_path / "study.trace.w4.jsonl",
        [fairness_event(111.0), fairness_event(112.0, repetition=1)],
    )
    after = scan_run(run_dir, now=125.0).to_json()
    assert after == before
    assert not any("fairness" in key for key in after)


def test_fairness_snapshot_json_is_serialisable_and_sorted(run_dir, tmp_path):
    write_events(
        tmp_path / "study.trace.w4.jsonl",
        [fairness_event(111.0), fairness_event(112.0, model="knn")],
    )
    payload = scan_run(run_dir, now=125.0).to_json()
    assert json.loads(json.dumps(payload)) == payload
    keys = list(payload["throughput"])
    assert keys == sorted(keys)
    assert [worker["track"] for worker in payload["workers"]] == ["w2", "w3"]


def test_scan_run_and_build_health_agree_on_tallies(run_dir, tmp_path):
    unit = {"dataset": "german", "error_type": "mislabels", "repetition": 1}
    write_events(
        tmp_path / "study.trace.w5.jsonl",
        [
            {"v": 1, "kind": "event", "name": name, "ts": 115.0 + i, "w": "w5",
             "attrs": {**unit, "attempt": 1, "error": "RuntimeError: x"}}
            for i, name in enumerate(("retry", "recovered", "retry", "poison"))
        ],
    )
    failures = tmp_path / "study.failures.jsonl"
    failures.write_text(json.dumps({**unit, "attempts": 2}) + "\n")
    snapshot = scan_run(run_dir, now=125.0)
    health = load_health(trace_files(run_dir), failures)
    assert (
        snapshot.retries,
        snapshot.recovered,
        snapshot.poisoned_units,
        snapshot.heartbeats,
    ) == (health.retries, health.recovered, health.poisoned, health.heartbeats)
    assert (health.retries, health.recovered, health.poisoned) == (2, 1, 1)
    assert health.heartbeats == 5
