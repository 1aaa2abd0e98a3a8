"""Benchmark child process: set up one workload, then measure it.

``run.py`` starts this file in fresh processes so that set-up time
includes interpreter start and imports. Roles:

- ``setup``: imports, dataset generation, the warm-up (for ``tables``,
  building its store); prints ``{"ready": true}`` and exits.
- ``measure``: the same set-up, then timed passes until ``--seconds``
  have elapsed; prints ``{"result": {...}}``.
- ``pin``: recompute the digests in ``digests.json`` for seed 0.

Every stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
ERROR_TYPES = ("missing_values", "outliers", "mislabels")
ALL_MODELS = ("log_reg", "knn", "xgboost")
#: Rows sampled per repetition in the throwaway warm-up study.
WARMUP_SAMPLE = 100


@dataclasses.dataclass(frozen=True)
class Study:
    datasets: tuple[str, ...]
    models: tuple[str, ...]
    pins: str
    max_passes: int
    config: dict = dataclasses.field(default_factory=dict)
    workers: int = 1
    backend: str = "serial"


STUDIES = {
    "paper-slice": Study(("german",), ALL_MODELS, "paper", 3),
    "linear-slice": Study(
        ("adult", "folk"),
        ("log_reg", "knn"),
        "linear",
        16,
        {"n_sample": 3_000, "test_fraction": 0.4},
    ),
    "linear-x2": Study(
        ("adult", "folk"),
        ("log_reg", "knn"),
        "linear",
        16,
        {"n_sample": 3_000, "test_fraction": 0.4},
        workers=2,
        backend="process",
    ),
}
WORKLOADS = (*STUDIES, "tables")
TABLES_MAX_PASSES = 24


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def load_pins() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {}


def canonical(record) -> str:
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))


def host_probe() -> float:
    """Fixed numpy + pure-Python kernel; shows host speed, nothing else."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((300, 300))
    a @ a  # first call pays BLAS start-up, which is not host speed
    started = time.perf_counter()
    for _ in range(20):
        a = np.tanh(a @ a.T / 300.0)
    np.sort(rng.standard_normal(1_000_000))
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - started


# -- studies ---------------------------------------------------------------


def study_config(study: Study, seed: int, repetitions: int, **overrides):
    from repro import StudyConfig

    settings = {**study.config, **overrides}
    return StudyConfig(
        n_repetitions=repetitions,
        generation_seed=seed,
        models=study.models,
        **settings,
    )


def executor_options(study: Study, trace: bool):
    from repro.benchmark.parallel import ExecutorOptions

    return ExecutorOptions(backend=study.backend, trace=trace)


def study_cells(study: Study) -> list[tuple[str, str, str]]:
    """The (dataset, error_type, model) cells of one repetition."""
    from repro.datasets import dataset_definition

    return [
        (dataset, error_type, model)
        for dataset in study.datasets
        for error_type in ERROR_TYPES
        if error_type in dataset_definition(dataset).error_types
        for model in study.models
    ]


def setup_study(study: Study, seed: int, workdir: Path) -> None:
    """Generate the datasets and warm the executor and every model in a
    throwaway store (one small mislabels repetition: the cheapest error
    type, two evaluations per model)."""
    from repro.benchmark import ResultStore, run_parallel_study

    warm = study_config(study, seed, 1, n_sample=WARMUP_SAMPLE)
    run_parallel_study(
        warm,
        ResultStore(workdir / "warmup.json"),
        workers=study.workers,
        datasets=study.datasets,
        error_types=("mislabels",),
        options=executor_options(study, trace=False),
    )


def run_study_pass(study: Study, seed: int, store, repetition: int, trace: bool):
    """Add repetition ``repetition`` to ``store``; returns (wall_s, added)."""
    from repro.benchmark import run_parallel_study

    config = study_config(study, seed, repetition + 1)
    started = time.perf_counter()
    added = run_parallel_study(
        config,
        store,
        workers=study.workers,
        datasets=study.datasets,
        options=executor_options(study, trace),
    )
    return time.perf_counter() - started, added


def record_problems(record) -> list[str]:
    """Sanity checks every record must pass, whatever the seed."""
    problems = []
    metrics = record.metrics
    for technique in ("dirty", record.repair):
        accuracy = metrics.get(f"{technique}_test_acc")
        if not isinstance(accuracy, float) or not 0.0 <= accuracy <= 1.0:
            problems.append(f"{record.key}: bad {technique}_test_acc {accuracy!r}")
    for key, value in metrics.items():
        if key.endswith(("__tp", "__fp", "__tn", "__fn")):
            if not isinstance(value, int) or value < 0:
                problems.append(f"{record.key}: bad count {key}={value!r}")
    return problems


def cell_digests(study: Study, store, repetition: int) -> dict[str, str | None]:
    """Digest per cell of one repetition (None when a record is missing
    or fails :func:`record_problems`)."""
    from repro.benchmark.parallel import _VARIANTS
    from repro.benchmark.results import RunRecord

    by_cell: dict[str, list] = {}
    for record in store.records(repetition=repetition):
        cell = f"{record.dataset}/{record.error_type}/{record.model}"
        by_cell.setdefault(cell, []).append(record)
    digests: dict[str, str | None] = {}
    for dataset, error_type, model in study_cells(study):
        cell = f"{dataset}/{error_type}/{model}"
        records = sorted(by_cell.get(cell, []), key=lambda record: record.key)
        expected = sorted(
            RunRecord(dataset, error_type, detection, repair, model, repetition, 0).key
            for detection, repair in _VARIANTS[error_type]
        )
        if [record.key for record in records] != expected or any(
            record_problems(record) for record in records
        ):
            digests[cell] = None
            continue
        text = "\n".join(canonical(record) for record in records)
        digests[cell] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return digests


def pass_digest(digests: dict[str, str | None]) -> str:
    text = "\n".join(f"{cell}={digests[cell]}" for cell in sorted(digests))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def failed_cells(
    digests: dict[str, str | None], pinned: dict[str, str] | None
) -> list[str]:
    """Cells whose records are missing, malformed or differ from the pin."""
    return sorted(
        cell
        for cell, digest in digests.items()
        if digest is None or (pinned is not None and pinned.get(cell) != digest)
    )


def poisoned_cells(store) -> int:
    path = store.failures_path
    if path is None or not path.exists():
        return 0
    with path.open() as handle:
        return sum(
            len(json.loads(line)["pending_cells"]) for line in handle if line.strip()
        )


# -- tables ----------------------------------------------------------------


def setup_tables(workdir: Path):
    """Shard the committed legacy store into a fresh sharded-v1 store."""
    from repro import ImpactAnalysis
    from repro.benchmark import ResultStore
    from repro.benchmark.results import RunRecord

    source = Path("benchmarks/_results/study.json")
    with source.open() as handle:
        payloads = json.load(handle)["records"]
    path = workdir / "tables.json"
    building = ResultStore(path)
    for payload in payloads:
        building.add(RunRecord.from_json(payload))
    building.save()
    store = ResultStore(path)
    ImpactAnalysis(store).matrix("mislabels", "EO", intersectional=False)
    return store


def run_tables_pass(store) -> tuple[float, str, int, bool]:
    """Tables II-XIII, Table XIV and an audit self-diff.

    Returns (wall_s, digest, configurations, clean self-diff).
    """
    from repro import DeepDive, ImpactAnalysis, obs, reporting

    started = time.perf_counter()
    analysis = ImpactAnalysis(store)
    parts = []
    configurations = 0
    number = 2
    for error_type in ERROR_TYPES:
        for intersectional in (False, True):
            for metric in ("PP", "EO"):
                matrix = analysis.matrix(error_type, metric, intersectional)
                configurations += matrix.total
                parts.append(
                    reporting.render_impact_matrix(
                        matrix, f"TABLE {number}: {error_type} {metric}"
                    )
                )
                number += 1
    impacts = []
    for error_type in ERROR_TYPES:
        for metric in ("PP", "EO"):
            impacts.extend(
                analysis.configuration_impacts(error_type, metric, False)
            )
    configurations += len(impacts)
    deepdive = DeepDive(impacts)
    parts.append(reporting.render_model_table(deepdive.model_summaries(), "TABLE XIV"))
    parts.append(reporting.render_case_counts(deepdive.case_counts(), "SECTION VI"))
    parts.append(json.dumps(deepdive.dummy_vs_mode_imputation(), sort_keys=True))
    parts.append(json.dumps(deepdive.detection_worsening_rates(), sort_keys=True))
    audit = obs.build_audit(store)
    diff = obs.diff_audits(audit, audit)
    parts.append(obs.render_audit(audit))
    parts.append(obs.render_audit_diff(diff))
    wall = time.perf_counter() - started
    text = "\n\n".join(parts)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return wall, digest, configurations, not diff.regressions


# -- measurement -------------------------------------------------------------


def peak_rss_mb() -> float:
    """Max RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def keep_going(started: float, seconds: float, done: int, cap: int) -> bool:
    return done < cap and (done == 0 or time.perf_counter() - started < seconds)


def measure_study(study: Study, args, workdir: Path, clock) -> dict:
    from repro.benchmark import ResultStore

    pins = load_pins().get("studies", {}).get(study.pins, {}).get(str(args.seed))
    n_cells = len(study_cells(study))
    attempted = failed = 0
    problems: list[str] = []

    def check(store, repetition: int) -> str:
        nonlocal failed
        digests = cell_digests(study, store, repetition)
        pinned = None if pins is None else pins.get(str(repetition), {})
        bad = failed_cells(digests, pinned)
        poisoned = poisoned_cells(store)
        failed += max(len(bad), poisoned)
        problems.extend(f"rep{repetition}: {cell}" for cell in bad)
        return pass_digest(digests)

    if not args.trace:
        store = ResultStore(workdir / "study.json")
        walls, records = [], 0
        started = time.perf_counter()
        while keep_going(started, args.seconds, len(walls), study.max_passes):
            repetition = len(walls)
            wall, added = run_study_pass(study, args.seed, store, repetition, False)
            walls.append(wall)
            records += added
            attempted += n_cells
            check(store, repetition)
        return {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "walls": walls,
            "metrics": {"records_per_s": records / sum(walls)},
        }

    # traced run: plain (U) and repro.obs-traced (T) passes of the same
    # repetition in two stores, alternating order; the layer wrappers
    # stay installed throughout so T - U isolates repro.obs alone
    stores = {
        kind: ResultStore(workdir / f"{kind}.json") for kind in ("untraced", "traced")
    }
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    records = {"untraced": 0, "traced": 0}
    snapshots = []
    clock.dump_path = str(workdir / "layers")
    outdir = Path(args.outdir)
    started = time.perf_counter()
    repetition = 0
    while keep_going(started, args.seconds, repetition, study.max_passes):
        order = ("untraced", "traced") if repetition % 2 == 0 else ("traced", "untraced")
        digests = {}
        for kind in order:
            clock.reset()
            wall, added = run_study_pass(
                study, args.seed, stores[kind], repetition, kind == "traced"
            )
            snapshot = clock.snapshot()
            workers = layers.merge_worker_dumps(clock)
            walls[kind].append(wall)
            records[kind] += added
            attempted += n_cells
            digests[kind] = check(stores[kind], repetition)
            if kind == "traced":
                snapshots.append((wall, snapshot, workers))
                if repetition == 0:
                    from repro.obs import export_trace

                    export_trace(
                        stores["traced"].trace_paths(), outdir / "trace.chrome.json"
                    )
        if digests["untraced"] != digests["traced"]:
            failed += n_cells
            problems.append(f"rep{repetition}: traced digest differs from untraced")
        repetition += 1
    scaling = 1.0
    if study.workers > 1:
        serial = dataclasses.replace(study, workers=1, backend="serial")
        serial_store = ResultStore(workdir / "serial.json")
        wall, added = run_study_pass(serial, args.seed, serial_store, 0, False)
        layers.merge_worker_dumps(clock)
        if check(serial_store, 0) != pass_digest(cell_digests(study, stores["untraced"], 0)):
            failed += n_cells
            problems.append("rep0: serial digest differs from parallel")
        attempted += n_cells
        parallel_rate = records["untraced"] / sum(walls["untraced"])
        scaling = parallel_rate / (study.workers * added / wall)
    overhead = sum(walls["traced"]) / sum(walls["untraced"]) - 1
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "walls": walls,
        "snapshots": snapshots,
        "scaling_eff": scaling,
        "trace_overhead_frac": overhead,
    }


def measure_tables(args, store, clock, workdir: Path) -> dict:
    from repro import obs

    outdir = Path(args.outdir)
    pins = load_pins().get("tables")
    attempted = failed = 0
    problems: list[str] = []
    walls, snapshots = [], []
    started = time.perf_counter()
    while keep_going(started, args.seconds, len(walls), TABLES_MAX_PASSES):
        clock.reset()
        if args.trace and not walls:
            # the read path has no repro.obs spans of its own: the first
            # traced pass records the wrapped layers as spans instead
            trace_path = workdir / "tables.trace.jsonl"
            clock.span = obs.span
            with obs.scoped(trace_path):
                wall, digest, configurations, clean = run_tables_pass(store)
            clock.span = None
            obs.export_trace([trace_path], outdir / "trace.chrome.json")
        else:
            wall, digest, configurations, clean = run_tables_pass(store)
        snapshots.append((wall, clock.snapshot(), None))
        walls.append(wall)
        attempted += configurations
        if not clean or (pins is not None and digest != pins):
            failed += configurations
            problems.append(f"pass {len(walls)}: digest {digest} != {pins}")
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "walls": walls,
        "metrics": {"records_per_s": len(store) * len(walls) / sum(walls)},
    }
    if args.trace:
        result.update(snapshots=snapshots, scaling_eff=1.0, trace_overhead_frac=0.0)
    return result


# -- per-layer report ----------------------------------------------------------

PER_PASS_LAYERS = (
    "ml.tune",
    "ml.predict",
    "ml.featurize",
    "ml.delta",
    "cleaning.detect",
    "cleaning.repair",
    "tabular.split",
    "fairness.masks",
    "fairness.confusions",
    "results.write",
    "parallel.plan",
    "transport.publish",
    "results.scan",
    "stats.ttest",
    "impact.classify",
    "reporting.render",
    "obs.audit",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_report(name: str, args, result: dict, setup: dict, workers: int) -> dict:
    """Per-layer JSON of the traced passes plus the per_layer metrics."""
    snapshots = result["snapshots"]
    n = len(snapshots)
    wall = sum(snapshot[0] for snapshot in snapshots) / n
    parent: dict[str, float] = {}
    pooled: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    marks: dict[str, float] = {}
    for _wall, snap, worker in snapshots:
        for source in (snap, worker or {}):
            for key, value in source.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
            for key, value in source.get("marks", {}).items():
                marks[key] = marks.get(key, 0.0) + value
            for key, value in source.get("calls", {}).items():
                calls[key] = calls.get(key, 0) + value
        for key, value in snap["self_s"].items():
            parent[key] = parent.get(key, 0.0) + value / n
        for key, value in (worker or {}).get("self_s", {}).items():
            pooled[key] = pooled.get(key, 0.0) + value / n
    other = wall - sum(parent.values())
    unit_s = marks.get("unit_s", 0.0) / n
    save_s = marks.get("save_s", 0.0) / n
    busy = {key: parent.get(key, 0.0) + pooled.get(key, 0.0) for key in set(parent) | set(pooled)}
    detail = {
        "workload": name,
        "seed": args.seed,
        "traced_passes": n,
        "wall_s": wall,
        "parent": {
            "layers": {
                key: {"self_s": value, "share": value / wall, "calls": calls.get(key, 0) // n}
                for key, value in sorted(parent.items())
            },
            "other": {"self_s": other, "share": other / wall},
            "sum_s": sum(parent.values()) + other,
        },
        "counts_per_pass": {key: value / n for key, value in sorted(counts.items())},
        "setup": setup,
        "passes": result["walls"],
    }
    if pooled:
        detail["workers"] = {
            "unit_s": unit_s,
            "layers": {key: {"self_s": value} for key, value in sorted(pooled.items())},
            "other": {"self_s": unit_s - sum(pooled.values())},
        }
    metrics = {f"{key}_s": busy.get(key, 0.0) for key in PER_PASS_LAYERS}
    metrics.update(
        {
            "datasets.generate_s": setup.get("self_s", {}).get("datasets.generate", 0.0),
            "ml.tune_fastpath_frac": _ratio(counts.get("tune_fastpath", 0), counts.get("tune_fits", 0)),
            "ml.eval_memo_hit_frac": _ratio(counts.get("memo_hits", 0), counts.get("memo_lookups", 0)),
            "ml.featurize_reuse_frac": _ratio(
                counts.get("featurize_patched", 0),
                counts.get("featurize_patched", 0) + counts.get("featurize_cold", 0),
            ),
            "cleaning.detect_flagged_frac": _ratio(counts.get("detect_flagged", 0), counts.get("detect_rows", 0)),
            "parallel.overhead_s": wall - unit_s / workers - save_s if "units" in counts else 0.0,
            "parallel.scaling_eff": result["scaling_eff"],
            "obs.trace_overhead_frac": result["trace_overhead_frac"],
            "trace.wall_s": wall,
            "trace.other_s": other,
        }
    )
    return {"detail": detail, "metrics": metrics, "cells": marks, "cell_counts": counts}


def projection(study: Study, report: dict) -> dict:
    """Projected serial time to rebuild the committed store from the
    traced passes' per-(error_type, model) cell costs."""
    import importlib.util

    from repro.benchmark import ResultStore
    from repro.benchmark.parallel import plan_work_units

    spec = importlib.util.spec_from_file_location("bench_conftest", "benchmarks/conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    marks, counts = report["cells"], report["cell_counts"]
    cost = {}
    for error_type in ERROR_TYPES:
        cells_seen = counts.get(f"cells|{error_type}", 0)
        prep = marks.get(f"prep|{error_type}", 0.0) / cells_seen if cells_seen else 0.0
        for model in ALL_MODELS:
            n = counts.get(f"cell|{error_type}|{model}", 0)
            if n:
                cost[(error_type, model)] = marks[f"cell|{error_type}|{model}"] / n + prep
    projected = 0.0
    covered = uncovered = 0
    for error_type, config in conftest.STUDY_CONFIGS.items():
        for unit in plan_work_units(config, ResultStore(), error_types=(error_type,)):
            for model, _seed in unit.cells:
                if (error_type, model) in cost:
                    projected += cost[(error_type, model)]
                    covered += 1
                else:
                    uncovered += 1
    return {
        "cell_cost_s": {f"{et}/{model}": value for (et, model), value in sorted(cost.items())},
        "projected_serial_s": projected,
        "cells_covered": covered,
        "cells_not_measured": uncovered,
        "note": "cells of models this workload does not run are not projected",
    }


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "measure", "pin"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--outdir", default=str(HERE / "_out"))
    args = parser.parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.role}-", dir=args.workdir))
    try:
        if args.role == "pin":
            return pin(workdir)
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    clock = layers.LayerClock()
    import repro  # noqa: F401  (imports count toward set-up)

    bound = layers.entry_points() if args.trace else {}
    outdir = Path(args.outdir)
    if args.trace:
        outdir.mkdir(parents=True, exist_ok=True)
        layers.install_study(clock)
        layers.install_tables(clock)
        clock.wrap(
            "repro.benchmark.results:ResultStore.save",
            None,
            lambda original, store: _marked(clock, "save_s", original, store),
        )
    if args.workload == "tables":
        store = setup_tables(workdir)
    else:
        study = STUDIES[args.workload]
        setup_study(study, args.seed, workdir)
    setup = clock.snapshot()
    emit({"ready": True})
    if args.role == "setup":
        return 0
    probes = [host_probe()]
    if args.workload == "tables":
        result = measure_tables(args, store, clock, workdir)
    else:
        result = measure_study(study, args, workdir, clock)
    probes.append(host_probe())
    clock.uninstall()
    info = {
        "walls": result["walls"],
        "host_probe_s": probes,
        "problems": result["problems"][:20],
    }
    if args.trace:
        leftover = sorted(
            target
            for target, obj in layers.entry_points().items()
            if obj is not bound[target]
        )
        if leftover:
            result["failed"] += 1
            info["problems"].append(f"wrappers left installed: {leftover}")
        workers = STUDIES[args.workload].workers if args.workload in STUDIES else 1
        report = layer_report(args.workload, args, result, setup, workers)
        detail = report["detail"]
        if args.workload in STUDIES:
            detail["projection"] = projection(STUDIES[args.workload], report)
        (outdir / "layers.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
        metrics = report["metrics"]
        metrics["host.probe_s"] = statistics.mean(probes)
    else:
        metrics = dict(result["metrics"], peak_rss_mb=peak_rss_mb())
    emit(
        {
            "result": {
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
                "info": info,
            }
        }
    )
    return 0


def _marked(clock, name: str, original, *args):
    started = time.perf_counter()
    try:
        return original(*args)
    finally:
        clock.mark(name, time.perf_counter() - started)


def pin(workdir: Path) -> int:
    """Recompute the seed-0 digests of every pinned repetition."""
    from repro.benchmark import ResultStore

    emit({"ready": True})
    pins: dict = {"seed": 0, "studies": {}}
    for name in ("paper-slice", "linear-slice"):
        study = STUDIES[name]
        store = ResultStore(workdir / f"{study.pins}.json")
        reps = {}
        for repetition in range(study.max_passes):
            run_study_pass(study, 0, store, repetition, False)
            digests = cell_digests(study, store, repetition)
            if None in digests.values():
                raise SystemExit(f"{name} rep{repetition}: incomplete records")
            reps[str(repetition)] = digests
            emit({"pinned": name, "repetition": repetition})
        pins["studies"][study.pins] = {"0": reps}
    _wall, digest, _configs, clean = run_tables_pass(setup_tables(workdir))
    if not clean:
        raise SystemExit("tables: audit self-diff is not clean")
    pins["tables"] = digest
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
