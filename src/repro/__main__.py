"""Command-line interface for the reproduction study.

Subcommands::

    python -m repro datasets                      # Table I
    python -m repro rq1 [--dataset NAME] [--intersectional]
    python -m repro study --error-type TYPE --store PATH [options]
    python -m repro tables --store PATH           # Tables II-XIII + XIV
    python -m repro store-migrate STORE           # legacy -> sharded layout
    python -m repro obs-report STORE [--follow]   # progress + run health
    python -m repro obs-export STORE              # Perfetto-viewable trace
    python -m repro obs-diff STORE_A STORE_B      # cross-run regression diff
    python -m repro obs-audit STORE [--baseline FILE]  # fairness audit/gate
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from repro import (
    DATASET_NAMES,
    DisparityAnalysis,
    ImpactAnalysis,
    StudyConfig,
    dataset_definition,
    load_dataset,
)
from repro.benchmark import ExecutorOptions, ResultStore, run_parallel_study
from repro.datasets.definitions import check_n_rows
from repro.reporting import (
    render_case_counts,
    render_dataset_table,
    render_disparity_figure,
    render_impact_matrix,
    render_model_table,
)
from repro.reporting.report import paper_tables


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return number


def _checked(
    convert: Callable[[str], Any], check: Callable[[Any], object]
) -> Callable[[str], Any]:
    """An argparse type that converts a value and runs the library's own
    check on it, so a value the library rejects is a usage error."""

    def parse(value: str) -> Any:
        converted = convert(value)
        try:
            check(converted)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        return converted

    # argparse names the type in its "invalid <type> value" message
    parse.__name__ = convert.__name__
    return parse


def _study_field(name: str, convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse type bounded by ``StudyConfig``'s check of ``name``."""
    return _checked(convert, lambda value: StudyConfig(**{name: value}))


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_NAMES:
        definition = dataset_definition(name)
        rows.append(
            {
                "name": definition.name,
                "source": definition.source_domain,
                "n_tuples": definition.default_n_rows,
                "sensitive_attributes": definition.sensitive_attributes,
            }
        )
    print(render_dataset_table(rows, "TABLE I: DATASETS"))
    return 0


def _cmd_rq1(args: argparse.Namespace) -> int:
    names = [args.dataset] if args.dataset else list(DATASET_NAMES)
    analysis = DisparityAnalysis(random_state=args.seed)
    findings = []
    for name in names:
        definition, table = load_dataset(name, n_rows=args.n_rows, seed=args.seed)
        try:
            if args.intersectional:
                findings.extend(analysis.intersectional(definition, table))
            else:
                findings.extend(analysis.single_attribute(definition, table))
        except ValueError as error:
            # too few rows for the detectors' cross-validation folds
            args.usage_error(f"argument --n-rows: {name}: {error}")
    kind = "INTERSECTIONAL" if args.intersectional else "SINGLE-ATTRIBUTE"
    print(
        render_disparity_figure(
            findings, f"RQ1 {kind} DISPARITY ANALYSIS (* = significant, G² p=.05)"
        )
    )
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    config_kwargs = dict(
        n_sample=args.n_sample,
        test_fraction=args.test_fraction,
        n_repetitions=args.repetitions,
        n_tuning_seeds=args.tuning_seeds,
        workers=args.workers,
        incremental=args.incremental,
    )
    if args.models:
        config_kwargs["models"] = tuple(args.models)
    config = StudyConfig(**config_kwargs)
    store = ResultStore(args.store)
    names = [args.dataset] if args.dataset else list(DATASET_NAMES)
    error_types = (
        [args.error_type]
        if args.error_type
        else ["missing_values", "outliers", "mislabels"]
    )
    options = ExecutorOptions(
        transport=args.transport,
        max_retries=2 if args.max_retries is None else args.max_retries,
        cell_timeout=args.cell_timeout,
        fsync_journal=args.fsync_journal,
        trace=args.trace,
    )
    failures = store.failures_path
    poisoned_before = _count_lines(failures)
    total = run_parallel_study(
        config,
        store,
        datasets=names,
        error_types=error_types,
        options=options,
        progress=lambda line: print(line, flush=True),
    )
    print(f"added {total} records ({len(store)} in store)")
    # a run that poisoned nothing removes the sidecar; otherwise it
    # appended one line per unit it poisoned
    poisoned = max(0, _count_lines(failures) - poisoned_before)
    if poisoned:
        print(f"poisoned {poisoned} work unit(s); see {failures}")
        return 1
    return 0


def _count_lines(path) -> int:
    if not path.exists():
        return 0
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def _cmd_tables(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    if len(store) == 0:
        print(f"store {args.store} is empty; run `python -m repro study` first")
        return 1
    matrices, deepdive = paper_tables(ImpactAnalysis(store))
    for (number, error_type, metric, intersectional), matrix in matrices:
        group = "INTERSECTIONAL" if intersectional else "SINGLE-ATTRIBUTE"
        print(
            render_impact_matrix(
                matrix,
                f"TABLE {number}: {error_type} / {group} / {metric}",
            )
        )
        print()
    if deepdive is not None:
        print(render_model_table(deepdive.model_summaries(), "TABLE XIV: MODELS"))
        print()
        print(render_case_counts(deepdive.case_counts(), "CASE ANALYSIS"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting import build_study_report

    store = ResultStore(args.store)
    if len(store) == 0:
        print(f"store {args.store} is empty; run `python -m repro study` first")
        return 1
    report = build_study_report(store, title=args.title)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def _cmd_store_migrate(args: argparse.Namespace) -> int:
    from pathlib import Path

    path = Path(args.store)
    if not path.exists():
        print(f"no store at {path}")
        return 1
    store = ResultStore(path)
    if not store.is_legacy and not store.journal_paths():
        print(f"{path} is already a sharded store; nothing to migrate")
        return 0
    n_records = len(store)
    was_legacy = store.is_legacy
    if args.verify:
        violations = store.verify()
        if violations:
            for violation in violations:
                print(f"  {violation}")
            print(f"{path}: {len(violations)} violation(s); not migrating")
            return 1
    store.save()
    what = "legacy store" if was_legacy else "journal shards"
    n_shards = len(list(store.store_dir.glob("*.jsonl.gz")))
    print(
        f"migrated {what} at {path} to the sharded layout "
        f"({n_records} records, {n_shards} shard(s))"
    )
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json

    from repro.benchmark.results import trace_files
    from repro.obs import monitor_run, render_health_report

    if not trace_files(args.store):
        print(
            f"no trace data next to {args.store}; run "
            "`python -m repro study --trace` first"
        )
        return 1

    def render(health) -> str:
        if args.json:
            return json.dumps(health.to_json(), indent=2, sort_keys=True)
        return render_health_report(health, top=args.top)

    health = monitor_run(
        args.store,
        stall_after=args.stall_after,
        render=render,
        emit=lambda text: print(text, flush=True),
        max_iterations=None if args.follow else 1,
    )
    if args.follow and health.stalled:
        print(
            f"every worker stalled past {args.stall_after:g} s with cells "
            "remaining; the run is dead",
            file=sys.stderr,
        )
        return 4
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import export_trace
    from repro.benchmark.results import trace_files

    paths = trace_files(args.store)
    if not paths:
        print(
            f"no trace data next to {args.store}; run "
            "`python -m repro study --trace` first"
        )
        return 1
    output = (
        args.output
        if args.output
        else str(Path(args.store).with_suffix("")) + ".trace.chrome.json"
    )
    n_events = export_trace(paths, output)
    print(
        f"wrote {n_events} trace events to {output} "
        "(open in ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import diff_stores, render_diff
    from repro.benchmark.results import trace_files

    paths_a = trace_files(args.store_a)
    paths_b = trace_files(args.store_b)
    for label, paths in (("A", paths_a), ("B", paths_b)):
        if not paths:
            store = args.store_a if label == "A" else args.store_b
            print(f"no trace data next to run {label} ({store})")
            return 1
    diff = diff_stores(
        paths_a,
        paths_b,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    if args.json:
        print(json.dumps(diff.to_json(), indent=2, sort_keys=True))
    else:
        print(render_diff(diff, all_entries=args.all))
    return 1 if args.fail_on_regression and diff.flagged else 0


def _cmd_obs_audit(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        build_audit,
        diff_audits,
        load_baseline,
        render_audit,
        render_audit_diff,
    )

    if args.fail_on_fairness_regression and not args.baseline:
        print("--fail-on-fairness-regression requires --baseline")
        return 2
    store = ResultStore(args.store)
    if len(store) == 0:
        print(f"store {args.store} is empty; run `python -m repro study` first")
        return 1
    audit = build_audit(store)
    diff = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as error:
            print(f"cannot compare against baseline {args.baseline!r}: {error}")
            return 1
        diff = diff_audits(baseline, audit)
    if args.json:
        payload: dict = {"audit": audit.to_json()}
        if diff is not None:
            payload["diff"] = diff.to_json()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_audit(audit, top=args.top))
        if diff is not None:
            print()
            print(render_audit_diff(diff, all_findings=args.all))
    if args.fail_on_fairness_regression and diff is not None and diff.regressions:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ICDE 2023 cleaning-vs-fairness reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print Table I").set_defaults(func=_cmd_datasets)

    rq1 = sub.add_parser("rq1", help="run the RQ1 disparity analysis")
    rq1.add_argument("--dataset", choices=DATASET_NAMES)
    rq1.add_argument("--n-rows", type=_checked(int, check_n_rows), default=5_000)
    rq1.add_argument("--seed", type=_non_negative_int, default=0)
    rq1.add_argument("--intersectional", action="store_true")
    rq1.set_defaults(func=_cmd_rq1, usage_error=rq1.error)

    study = sub.add_parser("study", help="run RQ2 experiment configurations")
    study.add_argument("--store", required=True, help="JSON result-store path")
    study.add_argument("--dataset", choices=DATASET_NAMES)
    study.add_argument(
        "--error-type", choices=("missing_values", "outliers", "mislabels")
    )
    study.add_argument(
        "--n-sample", type=_study_field("n_sample", int), default=2_000
    )
    study.add_argument(
        "--test-fraction", type=_study_field("test_fraction", float), default=0.3
    )
    study.add_argument(
        "--repetitions", type=_study_field("n_repetitions", int), default=10
    )
    study.add_argument(
        "--tuning-seeds", type=_study_field("n_tuning_seeds", int), default=1
    )
    study.add_argument(
        "--workers",
        type=_study_field("workers", int),
        default=1,
        help="worker processes; >1 shards pending runs across a pool, 1 "
        "runs them in-process (results are byte-identical either way)",
    )
    study.add_argument(
        "--transport",
        choices=("auto", "shm", "pickle"),
        default="auto",
        help="how datasets reach process-pool workers: zero-copy "
        "shared-memory segments, pickled tables, or auto-detect "
        "(default; shm where available)",
    )
    study.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=None,
        help="re-queue attempts per failing work unit before it is "
        "poisoned into the failures.jsonl sidecar (default 2)",
    )
    study.add_argument(
        "--cell-timeout",
        type=_positive_float,
        default=None,
        help="seconds one (model, tuning-seed) cell may run before the "
        "watchdog fails it for retry (default: no timeout)",
    )
    study.add_argument(
        "--fsync-journal",
        action="store_true",
        help="fsync every journal append (durable against power loss)",
    )
    study.add_argument(
        "--incremental",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse computation across a repetition's cleaned versions "
        "(a version whose categorical cells equal an earlier version's "
        "reuses its one-hot block; booster presorts and tuned "
        "evaluations are memoised); results are byte-identical either "
        "way — --no-incremental forces every cell to a cold refit",
    )
    study.add_argument(
        "--trace",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="write structured trace/metric events to a {store}.trace.jsonl "
        "sidecar (results stay byte-identical; view with `obs-report`, "
        "follow live with `obs-report --follow`, export with `obs-export`)",
    )
    study.add_argument(
        "--models",
        nargs="+",
        choices=("log_reg", "knn", "xgboost"),
        default=None,
        help="restrict the study to these models (default: all three)",
    )
    study.set_defaults(func=_cmd_study)

    tables = sub.add_parser("tables", help="render Tables II-XIV from a store")
    tables.add_argument("--store", required=True)
    tables.set_defaults(func=_cmd_tables)

    report = sub.add_parser("report", help="write a full markdown study report")
    report.add_argument("--store", required=True)
    report.add_argument("--output", help="output path (stdout when omitted)")
    report.add_argument("--title", default="Study report")
    report.set_defaults(func=_cmd_report)

    migrate = sub.add_parser(
        "store-migrate",
        help="migrate a legacy monolithic result store (and any journal "
        "shards) to the sharded layout",
    )
    migrate.add_argument("store", help="path of the store's JSON file")
    migrate.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="audit the store before migrating and refuse on violations "
        "(default on)",
    )
    migrate.set_defaults(func=_cmd_store_migrate)

    obs_report = sub.add_parser(
        "obs-report",
        help="summarise a traced run's newest run from its trace sidecars: "
        "progress, ETA, throughput, worker liveness and run health",
    )
    obs_report.add_argument("store", help="result-store path of a traced run")
    obs_report.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="number of slowest cells to list (default 10)",
    )
    obs_report.add_argument(
        "--json",
        action="store_true",
        help="print the RunHealth summary as JSON instead of plain text",
    )
    obs_report.add_argument(
        "--follow",
        action="store_true",
        help="re-print every 2 s until the run is complete (exit 0) or "
        "every worker has stalled with cells remaining (exit 4); "
        "read-only, safe on an in-flight run",
    )
    obs_report.add_argument(
        "--stall-after",
        type=_positive_float,
        default=60.0,
        help="heartbeat age in seconds after which a worker is reported "
        "stalled (default 60)",
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    obs_export = sub.add_parser(
        "obs-export",
        help="convert trace sidecars to Chrome Trace Event Format "
        "(viewable in Perfetto / chrome://tracing / speedscope)",
    )
    obs_export.add_argument("store", help="result-store path of a traced run")
    obs_export.add_argument(
        "--output",
        help="output path (default {store}.trace.chrome.json)",
    )
    obs_export.set_defaults(func=_cmd_obs_export)

    obs_diff = sub.add_parser(
        "obs-diff",
        help="compare two traced runs: span-duration distributions, metric "
        "counters and cache/reuse hit rates, with noise-aware thresholds",
    )
    obs_diff.add_argument("store_a", help="baseline run's store path")
    obs_diff.add_argument("store_b", help="candidate run's store path")
    obs_diff.add_argument(
        "--threshold",
        type=_positive_float,
        default=0.10,
        help="relative change required to flag a quantity (default 0.10)",
    )
    obs_diff.add_argument(
        "--min-seconds",
        type=_positive_float,
        default=0.005,
        help="absolute span-duration change floor in seconds under which "
        "differences count as noise (default 0.005)",
    )
    obs_diff.add_argument(
        "--all",
        action="store_true",
        help="print every compared quantity, not only flagged ones",
    )
    obs_diff.add_argument(
        "--json",
        action="store_true",
        help="print the diff as JSON instead of plain text",
    )
    obs_diff.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when any quantity is flagged (CI gate)",
    )
    obs_diff.set_defaults(func=_cmd_obs_diff)

    obs_audit = sub.add_parser(
        "obs-audit",
        help="audit per-group fairness outcomes of a run, optionally "
        "against a baseline file, with a CI regression gate",
    )
    obs_audit.add_argument("store", help="result-store path of the run")
    obs_audit.add_argument(
        "--baseline",
        help="baseline file to diff against: the JSON `obs-audit --json` "
        "printed for an earlier run",
    )
    obs_audit.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="number of worst widenings to list (default 10)",
    )
    obs_audit.add_argument(
        "--all",
        action="store_true",
        help="print every compared coordinate, not only flagged ones",
    )
    obs_audit.add_argument(
        "--json",
        action="store_true",
        help="print the audit (and diff) as JSON instead of plain text",
    )
    obs_audit.add_argument(
        "--fail-on-fairness-regression",
        action="store_true",
        help="exit 3 when any fairness verdict moves toward worse vs the "
        "baseline (CI gate; requires --baseline)",
    )
    obs_audit.set_defaults(func=_cmd_obs_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
