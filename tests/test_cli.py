"""Tests for the python -m repro command-line interface."""

import re

import pytest

from repro.__main__ import build_parser, main


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "TABLE I" in out
    assert "german" in out and "378,817" in out


def test_rq1_command_single_dataset(capsys):
    assert main(["rq1", "--dataset", "german", "--n-rows", "600"]) == 0
    out = capsys.readouterr().out
    assert "german / age" in out


def test_rq1_intersectional(capsys):
    assert (
        main(["rq1", "--dataset", "german", "--n-rows", "600", "--intersectional"])
        == 0
    )
    out = capsys.readouterr().out
    assert "sex_x_age" in out


def test_study_and_tables_roundtrip(tmp_path, capsys):
    store_path = str(tmp_path / "store.json")
    code = main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "german/mislabels/rep0: +" in out

    assert main(["tables", "--store", store_path]) == 0
    out = capsys.readouterr().out
    assert "TABLE X:" in out
    assert "TABLE XIV" in out


def test_study_with_workers(tmp_path, capsys):
    store_path = str(tmp_path / "store.json")
    code = main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "2",
            "--workers",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "planned 2 work units" in out
    # 2 repetitions x 3 default models x 1 mislabel repair
    assert "added 6 records (6 in store)" in out


def test_report_command(tmp_path, capsys):
    store_path = str(tmp_path / "store.json")
    main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "2",
        ]
    )
    capsys.readouterr()
    output = tmp_path / "report.md"
    assert main(["report", "--store", store_path, "--output", str(output)]) == 0
    text = output.read_text()
    assert text.startswith("# Study report")
    assert "## Table X:" in text


def test_report_empty_store(tmp_path, capsys):
    assert main(["report", "--store", str(tmp_path / "none.json")]) == 1


def test_tables_empty_store(tmp_path, capsys):
    assert main(["tables", "--store", str(tmp_path / "empty.json")]) == 1
    assert "empty" in capsys.readouterr().out


def test_parser_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["rq1", "--dataset", "nope"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--workers", "0"),
        ("--workers", "-2"),
        ("--max-retries", "-1"),
        ("--max-retries", "two"),
        ("--cell-timeout", "abc"),
        ("--cell-timeout", "0"),
        ("--cell-timeout", "-1.5"),
    ],
)
def test_study_rejects_bad_executor_flags(capsys, flag, value):
    """argparse rejects malformed executor flags with exit code 2 and a
    message naming the offending flag."""
    with pytest.raises(SystemExit) as excinfo:
        main(["study", "--store", "s.json", flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert flag in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["study", "--store", "s.json", "--trace=yes"], "--trace"),
        (["obs-report"], "store"),
        (["obs-report", "s.json", "--top", "0"], "--top"),
        (["obs-report", "s.json", "--top", "-3"], "--top"),
        (["obs-report", "s.json", "--top", "ten"], "--top"),
    ],
)
def test_observability_flags_rejected_with_message(capsys, argv, flag):
    """Malformed --trace / obs-report arguments exit 2 naming the
    offending flag, mirroring the executor-flag validation."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["study", "--n-sample", "5"], "n_sample must be >= 10, got 5"),
        (["study", "--repetitions", "0"], "n_repetitions must be >= 1, got 0"),
        (["study", "--tuning-seeds", "0"], "n_tuning_seeds must be >= 1, got 0"),
        (
            ["study", "--test-fraction", "1.5"],
            "test_fraction must be in (0, 1), got 1.5",
        ),
        (["study", "--test-fraction", "0"], "test_fraction must be in (0, 1)"),
        (["rq1", "--n-rows", "-3"], "n_rows must be >= 1, got -3"),
        (["rq1", "--n-rows", "0"], "n_rows must be >= 1, got 0"),
    ],
)
def test_out_of_bounds_study_sizes_are_usage_errors(
    tmp_path, capsys, argv, message
):
    """A size the library's own validation rejects exits 2 with an
    argparse message naming the flag, before anything reaches the store."""
    command, flag, value = argv
    store = tmp_path / "s.json"
    store_args = ["--store", str(store)] if command == "study" else []
    with pytest.raises(SystemExit) as excinfo:
        main([command, *store_args, flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {command}: error: argument {flag}: {message}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["rq1", "--seed", "-1"],
            "repro rq1: error: argument --seed: must be >= 0, got -1",
        ),
        (
            ["rq1", "--dataset", "german", "--n-rows", "5"],
            "repro rq1: error: argument --n-rows: german: class 0 has only "
            "3 examples for 5 folds",
        ),
    ],
)
def test_rq1_bad_inputs_are_usage_errors(capsys, argv, message):
    """A negative seed, or too few rows for the detectors' folds, exits
    2 with an argparse message instead of a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_study_accepts_no_trace_default(tmp_path):
    args = build_parser().parse_args(
        ["study", "--store", "s.json", "--no-trace"]
    )
    assert args.trace is False
    assert build_parser().parse_args(["study", "--store", "s.json"]).trace is False


def test_obs_report_without_trace_data(tmp_path, capsys):
    assert main(["obs-report", str(tmp_path / "none.json")]) == 1
    assert "--trace" in capsys.readouterr().out


def test_traced_study_and_obs_report_roundtrip(tmp_path, capsys):
    """--trace produces a trace sidecar an obs-report can render,
    without changing the study records."""
    store_path = str(tmp_path / "store.json")
    code = main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "1",
            "--trace",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "store.trace.jsonl").exists()
    assert main(["obs-report", store_path, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "RUN HEALTH" in out
    assert "Slowest cells (top 3)" in out
    assert "Cell time by model" in out
    from repro.benchmark import ResultStore

    store = ResultStore(tmp_path / "store.json")
    assert store.verify() == []
    assert len(store) == 3  # 1 repetition x 3 default models


def test_study_with_hardening_flags(tmp_path, capsys):
    """The retry/timeout/fsync flags route through the hardened
    executor and still produce a complete, verifiable store."""
    store_path = str(tmp_path / "store.json")
    code = main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "1",
            "--max-retries",
            "1",
            "--cell-timeout",
            "120",
            "--fsync-journal",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "planned 1 work units" in out
    from repro.benchmark import ResultStore

    store = ResultStore(tmp_path / "store.json")
    assert store.verify() == []
    assert not store.failures_path.exists()


# -- backends, transports & store migration -----------------------------


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--transport", "carrier-pigeon"),
    ],
)
def test_study_rejects_unknown_backend_and_transport(capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["study", "--store", "s.json", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


def test_study_backend_and_transport_defaults():
    """``--workers`` alone picks where units run (1 = in-process)."""
    args = build_parser().parse_args(["study", "--store", "s.json"])
    assert not hasattr(args, "backend")
    assert args.workers == 1
    assert args.transport == "auto"


def test_study_serial_backend_runs_study(tmp_path, capsys):
    """The serial path is ``--workers 1``: units run in-process."""
    store = tmp_path / "study.json"
    code = main(
        [
            "study",
            "--store",
            str(store),
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "120",
            "--repetitions",
            "1",
            "--workers",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "for 1 worker(s)" in out and "added" in out
    assert store.exists()


def test_study_exits_1_when_units_are_poisoned(tmp_path, capsys, monkeypatch):
    """A run that poisons a unit names the count and the failures
    sidecar, and exits 1 instead of reporting success."""
    import repro.benchmark.parallel as parallel

    def crash(task):
        raise RuntimeError("injected unit failure")

    monkeypatch.setattr(parallel, "_run_unit_traced", crash)
    store = tmp_path / "study.json"
    code = main(
        [
            "study",
            "--store",
            str(store),
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "120",
            "--repetitions",
            "2",
            "--models",
            "log_reg",
            "--max-retries",
            "0",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    sidecar = tmp_path / "study.failures.jsonl"
    assert "added 0 records" in out
    assert f"poisoned 2 work unit(s); see {sidecar}" in out
    assert len(sidecar.read_text().splitlines()) == 2


def test_store_migrate_requires_store_argument(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["store-migrate"])
    assert excinfo.value.code == 2
    assert "store" in capsys.readouterr().err


def test_store_migrate_missing_file(tmp_path, capsys):
    assert main(["store-migrate", str(tmp_path / "nope.json")]) == 1
    assert "no store" in capsys.readouterr().out


def test_store_migrate_legacy_roundtrip(tmp_path, capsys):
    from repro.benchmark import ResultStore, RunRecord, write_legacy_store

    path = tmp_path / "study.json"
    write_legacy_store(
        path,
        [
            RunRecord(
                dataset="german",
                error_type="mislabels",
                detection="cleanlab",
                repair="flip_labels",
                model="log_reg",
                repetition=0,
                tuning_seed=0,
                metrics={"dirty_test_acc": 0.5},
            )
        ],
    )
    assert main(["store-migrate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "migrated legacy store" in out
    assert (tmp_path / "study.store").exists()
    migrated = ResultStore(path)
    assert not migrated.is_legacy
    assert len(migrated) == 1 and migrated.verify() == []
    # idempotent: a second invocation is a clean no-op
    assert main(["store-migrate", str(path)]) == 0
    assert "nothing to migrate" in capsys.readouterr().out


def test_store_migrate_refuses_corrupt_store_unless_no_verify(tmp_path, capsys):
    from repro.benchmark import RunRecord, write_legacy_store

    path = tmp_path / "study.json"
    record = RunRecord(
        dataset="german",
        error_type="mislabels",
        detection="cleanlab",
        repair="flip_labels",
        model="log_reg",
        repetition=0,
        tuning_seed=0,
        metrics={"dirty_test_acc": 0.5},
    )
    write_legacy_store(path, [record])
    import json as json_module

    payload = json_module.loads(path.read_text())
    payload["records"][0]["metrics"]["dirty_test_acc"] = 0.99  # bit rot
    path.write_text(json_module.dumps(payload))
    assert main(["store-migrate", str(path)]) == 1
    assert "not migrating" in capsys.readouterr().out
    assert main(["store-migrate", str(path), "--no-verify"]) == 0


# -- live telemetry commands --------------------------------------------


@pytest.fixture(scope="module")
def telemetry_study(tmp_path_factory):
    """One traced + memory-profiled study reused by the telemetry
    command tests (monitor / obs-export / obs-diff / obs-report)."""
    store_dir = tmp_path_factory.mktemp("telemetry")
    store_path = str(store_dir / "store.json")
    code = main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "1",
            "--profile-memory",  # implies --trace
        ]
    )
    assert code == 0
    return store_path


def test_profile_memory_implies_trace_and_annotates_spans(telemetry_study):
    from repro.benchmark import ResultStore
    from repro.obs import read_trace_events

    store = ResultStore(telemetry_study)
    assert store.verify() == []
    trace_path = store.trace_path
    assert trace_path.exists()
    events = read_trace_events([trace_path])
    assert any(event.get("name") == "heartbeat" for event in events)
    assert any(
        "mem_delta_bytes" in event.get("attrs", {})
        for event in events
        if event.get("kind") == "span"
    )


def test_monitor_once_and_json(telemetry_study, capsys):
    import json

    assert main(["monitor", telemetry_study, "--once"]) == 0
    out = capsys.readouterr().out
    assert "cells:" in out and "[COMPLETE]" in out
    assert main(["monitor", telemetry_study, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"] is True
    assert payload["cells_done"] == payload["planned_cells"] > 0


def test_monitor_without_trace_data(tmp_path, capsys):
    assert main(["monitor", str(tmp_path / "none.json")]) == 1
    assert "--trace" in capsys.readouterr().out


def test_obs_export_default_and_explicit_output(telemetry_study, tmp_path, capsys):
    import json
    from pathlib import Path

    assert main(["obs-export", telemetry_study]) == 0
    out = capsys.readouterr().out
    assert "perfetto" in out
    default_output = Path(telemetry_study).with_suffix("")
    default_output = default_output.parent / (default_output.name + ".trace.chrome.json")
    payload = json.loads(default_output.read_text())
    assert payload["traceEvents"]
    assert {"X", "M"} <= {event["ph"] for event in payload["traceEvents"]}
    explicit = tmp_path / "out.json"
    assert main(["obs-export", telemetry_study, "--output", str(explicit)]) == 0
    capsys.readouterr()
    assert json.loads(explicit.read_text())["otherData"]["source"] == "repro.obs"


def test_obs_export_without_trace_data(tmp_path, capsys):
    assert main(["obs-export", str(tmp_path / "none.json")]) == 1
    assert "--trace" in capsys.readouterr().out


def test_obs_diff_self_is_quiet(telemetry_study, capsys):
    import json

    assert main(["obs-diff", telemetry_study, telemetry_study]) == 0
    out = capsys.readouterr().out
    assert "RUN DIFF" in out
    assert "no changes beyond the noise thresholds" in out
    assert (
        main(
            ["obs-diff", telemetry_study, telemetry_study, "--fail-on-regression"]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["obs-diff", telemetry_study, telemetry_study, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flagged"] == 0 and payload["entries"]


def test_obs_diff_flags_synthetic_regression(tmp_path, capsys):
    import json

    for name, seconds in (("a", 1.0), ("b", 5.0)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "study.trace.jsonl").write_text(
            "\n".join(
                json.dumps(
                    {
                        "v": 1,
                        "kind": "span",
                        "name": "cell",
                        "path": "cell",
                        "seconds": seconds,
                    }
                )
                for _ in range(3)
            )
            + "\n"
        )
    store_a = str(tmp_path / "a" / "study.json")
    store_b = str(tmp_path / "b" / "study.json")
    assert (
        main(["obs-diff", store_a, store_b, "--fail-on-regression"]) == 1
    )
    assert "cell.mean_seconds" in capsys.readouterr().out
    assert main(["obs-diff", store_a, store_b]) == 0  # report-only default


def test_obs_diff_without_trace_data(telemetry_study, tmp_path, capsys):
    missing = str(tmp_path / "none.json")
    assert main(["obs-diff", missing, telemetry_study]) == 1
    assert "run A" in capsys.readouterr().out
    assert main(["obs-diff", telemetry_study, missing]) == 1
    assert "run B" in capsys.readouterr().out


def test_obs_report_json_output(telemetry_study, capsys):
    import json

    assert main(["obs-report", telemetry_study, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_events"] > 0
    assert payload["heartbeats"] > 0
    assert payload["peak_rss_bytes"] > 0
    assert "cell" in payload["memory"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["monitor", "s.json", "--interval", "0"], "--interval"),
        (["monitor", "s.json", "--interval", "-1"], "--interval"),
        (["monitor", "s.json", "--stall-after", "0"], "--stall-after"),
        (["obs-export", "s.json", "--format", "speedscope"], "--format"),
        (["obs-diff", "a.json"], "store_b"),
        (["obs-diff", "a.json", "b.json", "--threshold", "nope"], "--threshold"),
        (["obs-audit", "s.json", "--rules", "rules.json"], "--rules"),
        (["obs-baseline", "list", "s.json"], "obs-baseline"),
        (["study", "--store", "s.json", "--ledger"], "--ledger"),
        (["study", "--store", "s.json", "--no-ledger"], "--no-ledger"),
    ],
)
def test_telemetry_flags_rejected_with_message(capsys, argv, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


# -- fairness observatory: obs-audit --------------------------------------


def write_baseline(store_path, baseline, capsys):
    """Write what ``obs-audit STORE --json`` prints to ``baseline``."""
    capsys.readouterr()
    assert main(["obs-audit", str(store_path), "--json"]) == 0
    baseline.write_text(capsys.readouterr().out)


def test_obs_audit_json_is_a_baseline_and_self_audit_is_clean(
    telemetry_study, tmp_path, capsys
):
    baseline = tmp_path / "baseline.json"
    write_baseline(telemetry_study, baseline, capsys)
    code = main(
        [
            "obs-audit",
            telemetry_study,
            "--baseline",
            str(baseline),
            "--fail-on-fairness-regression",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIRNESS AUDIT" in out
    assert "no fairness regressions" in out


def test_obs_audit_json_and_markdown(telemetry_study, tmp_path, capsys):
    import json

    baseline = tmp_path / "baseline.json"
    write_baseline(telemetry_study, baseline, capsys)
    report = tmp_path / "audit.md"
    code = main(
        [
            "obs-audit",
            telemetry_study,
            "--baseline",
            str(baseline),
            "--json",
            "--markdown",
            str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["audit"]["n_records"] == 3
    assert payload["diff"]["regressions"] == []
    assert set(payload) == {"audit", "diff"}
    document = report.read_text()
    assert document.startswith("# Fairness audit")
    assert "No fairness regressions" in document
    assert "## Audited coordinates" in document


def test_obs_audit_is_the_read_only_live_fairness_view(tmp_path, capsys):
    """``obs-audit`` on a run stopped mid-study audits every journaled
    record and creates or modifies no file, so it serves as the live
    fairness view of an in-flight run."""
    import json

    from repro.benchmark import ResultStore, StudyAborted
    from repro.testing import FaultyExecutor
    from repro.testing.fixtures import chaos_config

    store_path = tmp_path / "live.json"
    store = ResultStore(store_path)
    with pytest.raises(StudyAborted):
        FaultyExecutor(abort_after_units=2, trace=True).run(
            chaos_config(n_repetitions=3),
            store,
            workers=1,
            datasets=("german",),
            error_types=("mislabels",),
        )
    assert not store_path.exists()  # only journal shards hold records
    journaled = sum(
        1
        for path in store.journal_paths()
        for line in path.read_text().splitlines()
        if line.strip()
    )
    assert journaled == 2

    def listing():
        return {
            path: (path.stat().st_size, path.stat().st_mtime_ns)
            for path in tmp_path.rglob("*")
        }

    before = listing()
    assert main(["obs-audit", str(store_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["audit"]["n_records"] == journaled
    assert listing() == before


@pytest.fixture(scope="module")
def gate_study(tmp_path_factory):
    """The CI fairness gate's study: 2 repetitions, so every
    configuration has 2 paired runs and a verdict can move (a
    1-repetition store is insignificant everywhere, sabotaged or not)."""
    store_path = str(tmp_path_factory.mktemp("gate") / "gate.json")
    code = main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "2",
            "--tuning-seeds",
            "1",
            "--models",
            "log_reg",
        ]
    )
    assert code == 0
    return store_path


def test_obs_audit_gate_fires_on_injected_regression(gate_study, tmp_path, capsys):
    from repro.testing import inject_fairness_regression

    baseline = tmp_path / "baseline.json"
    write_baseline(gate_study, baseline, capsys)
    sabotaged = tmp_path / "sabotaged.json"
    assert inject_fairness_regression(gate_study, sabotaged) == 2
    capsys.readouterr()
    report = tmp_path / "audit.md"
    code = main(
        [
            "obs-audit",
            str(sabotaged),
            "--baseline",
            str(baseline),
            "--markdown",
            str(report),
            "--fail-on-fairness-regression",
        ]
    )
    assert code == 3
    out = capsys.readouterr().out
    assert "REGRESSIONS (fairness verdict moved toward worse)" in out
    # each regression names its verdict move
    move = r": (better|insignificant) p=\S+ -> (insignificant|worse) p="
    assert re.search(move, out)
    assert "fairness regression" in report.read_text()
    # report-only mode still exits 0 on the same regression
    assert main(["obs-audit", str(sabotaged), "--baseline", str(baseline)]) == 0


def test_obs_audit_gate_without_baseline_is_misuse(telemetry_study, capsys):
    code = main(
        ["obs-audit", telemetry_study, "--fail-on-fairness-regression"]
    )
    assert code == 2
    assert "--baseline" in capsys.readouterr().out


def test_obs_audit_empty_store_and_unknown_baseline(
    telemetry_study, tmp_path, capsys
):
    assert main(["obs-audit", str(tmp_path / "none.json")]) == 1
    capsys.readouterr()
    not_json = tmp_path / "not.json"
    not_json.write_text("FAIRNESS AUDIT\n")
    no_audit = tmp_path / "no_audit.json"
    no_audit.write_text('{"diff": {}}')
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"audit": {"format": "paired-t-v1"}}')
    for path, reason in (
        (tmp_path / "nope.json", "cannot read it"),
        (not_json, "it is not JSON"),
        (no_audit, "it has no 'audit' object"),
        (truncated, "its audit is malformed (KeyError('groups'))"),
    ):
        code = main(
            [
                "obs-audit",
                telemetry_study,
                "--baseline",
                str(path),
                "--fail-on-fairness-regression",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert f"cannot compare against baseline '{path}': {reason}" in out
        assert "Traceback" not in out


def test_obs_audit_old_format_baseline_is_a_clean_error(
    telemetry_study, tmp_path, capsys
):
    """A baseline exported before the verdict audit (per-group confusion
    ``counts``, no verdicts) exits 1 naming its format, no traceback."""
    import json

    group = {
        "dataset": "german",
        "error_type": "mislabels",
        "detection": "cleanlab",
        "repair": "flip_labels",
        "model": "log_reg",
        "group": "sex",
        "n_runs": 2,
        "dirty_acc": 0.76,
        "repaired_acc": 0.78,
        "gaps": {"DP": [0.04, 0.05]},
        "counts": {"repaired_dis": [8, 5, 1, 17], "repaired_priv": [29, 14, 16, 76]},
    }
    old = tmp_path / "old_baseline.json"
    old.write_text(
        json.dumps(
            {
                "kind": "run",
                "run_id": "8e2e6df38134",
                "n_records": 2,
                "audit": {"metrics": ["DP"], "n_records": 2, "groups": [group]},
            }
        )
    )
    capsys.readouterr()
    code = main(
        [
            "obs-audit",
            telemetry_study,
            "--baseline",
            str(old),
            "--fail-on-fairness-regression",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "G²-era format" in out
    assert "Traceback" not in out


def test_study_models_and_no_ledger_flags(tmp_path, capsys):
    """``--models`` restricts the study, and a study writes no run
    ledger (its ``--ledger`` flags are gone)."""
    from repro.benchmark import ResultStore

    store_path = str(tmp_path / "store.json")
    code = main(
        [
            "study",
            "--store",
            store_path,
            "--dataset",
            "german",
            "--error-type",
            "mislabels",
            "--n-sample",
            "300",
            "--repetitions",
            "1",
            "--models",
            "log_reg",
        ]
    )
    assert code == 0
    capsys.readouterr()
    store = ResultStore(store_path)
    assert len(store) == 1  # one model, one repetition
    assert {record.model for record in store.iter_records()} == {"log_reg"}
    assert not (tmp_path / "store.ledger.jsonl").exists()


def test_study_rejects_unknown_model(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["study", "--store", "s.json", "--models", "resnet"])
    assert excinfo.value.code == 2
    assert "--models" in capsys.readouterr().err
