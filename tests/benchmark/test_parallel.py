"""Tests for the sharded parallel study executor.

The headline guarantee under test: parallel and serial execution
produce byte-identical result stores, because every random draw is
seeded from configuration coordinates rather than execution order.
"""

import json
import os
from collections import Counter

import pytest

from repro import obs
from repro.benchmark import (
    ExecutorOptions,
    ResultStore,
    RunRecord,
    StudyAborted,
    StudyConfig,
    WorkUnit,
    plan_work_units,
    run_parallel_study,
)
from repro.benchmark import parallel
from repro.benchmark import results as results_module
from repro.benchmark.parallel import (
    _OPENBLAS_THREAD_FUNCTIONS,
    _loaded_openblas,
    _pool_context,
    _set_blas_threads,
    _single_blas_thread,
    expected_cell_keys,
    partition_units,
)
from repro.ml import incremental
from repro.testing import Fault, FaultPlan
from repro.testing.fixtures import store_fingerprint


def tiny_config(**overrides) -> StudyConfig:
    defaults = dict(
        n_sample=300,
        n_repetitions=2,
        models=("log_reg",),
        dataset_sizes={"german": 600},
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


def run_serial(config, path, error_type, dataset="german"):
    store = ResultStore(path)
    run_parallel_study(
        config, store, workers=1, datasets=(dataset,), error_types=(error_type,)
    )
    return store


# -- expected keys ------------------------------------------------------


def test_expected_cell_keys_missing_values():
    keys = expected_cell_keys("german", "missing_values", 1, "log_reg", 0)
    assert len(keys) == 6
    assert all(key.startswith("german/missing_values/missing_values/") for key in keys)
    assert all(key.endswith("/log_reg/rep1/seed0") for key in keys)


def test_expected_cell_keys_outliers_cover_detector_repair_grid():
    keys = expected_cell_keys("german", "outliers", 0, "knn", 2)
    assert len(keys) == 9
    detections = {key.split("/")[2] for key in keys}
    assert detections == {"outliers_sd", "outliers_iqr", "outliers_if"}


def test_expected_cell_keys_mislabels():
    assert expected_cell_keys("german", "mislabels", 0, "log_reg", 0) == [
        "german/mislabels/cleanlab/flip_labels/log_reg/rep0/seed0"
    ]


def test_expected_cell_keys_rejects_unknown_error_type():
    with pytest.raises(ValueError, match="error type"):
        expected_cell_keys("german", "typos", 0, "log_reg", 0)


# -- planner ------------------------------------------------------------


def test_plan_enumerates_pending_cells():
    config = tiny_config(models=("log_reg", "knn"))
    units = plan_work_units(
        config, ResultStore(), datasets=("german",), error_types=("mislabels",)
    )
    assert [unit.repetition for unit in units] == [0, 1]
    for unit in units:
        assert unit.dataset == "german"
        assert unit.error_type == "mislabels"
        assert unit.cells == (("log_reg", 0), ("knn", 0))
        assert unit.done_keys == ()


def test_plan_keeps_a_repetitions_error_types_adjacent():
    """Sibling units of one repetition run back to back, so a process
    keeps their shared tuned results across all of them."""
    units = plan_work_units(
        tiny_config(), ResultStore(), datasets=("german", "heart")
    )
    assert [
        (unit.dataset, unit.repetition, unit.error_type) for unit in units
    ] == [
        ("german", 0, "missing_values"),
        ("german", 0, "outliers"),
        ("german", 0, "mislabels"),
        ("german", 1, "missing_values"),
        ("german", 1, "outliers"),
        ("german", 1, "mislabels"),
        ("heart", 0, "outliers"),
        ("heart", 0, "mislabels"),
        ("heart", 1, "outliers"),
        ("heart", 1, "mislabels"),
    ]


def _unit(dataset, repetition, error_type):
    return WorkUnit(
        dataset=dataset,
        error_type=error_type,
        repetition=repetition,
        cells=(("log_reg", 0),),
    )


PLANNED = [
    _unit("german", 0, "missing_values"),
    _unit("german", 0, "outliers"),
    _unit("german", 0, "mislabels"),
    _unit("german", 1, "missing_values"),
    _unit("german", 1, "mislabels"),
    _unit("heart", 0, "outliers"),
]


def test_partition_groups_a_repetitions_units_when_groups_fill_the_pool():
    for processes in (1, 2, 3):
        tasks = partition_units(PLANNED, processes)
        assert tasks == [tuple(PLANNED[:3]), tuple(PLANNED[3:5]), (PLANNED[5],)]


def test_partition_gives_each_unit_a_task_when_groups_are_fewer():
    assert partition_units(PLANNED, 4) == [(unit,) for unit in PLANNED]
    one_repetition = PLANNED[:3]
    assert partition_units(one_repetition, 2) == [
        (unit,) for unit in one_repetition
    ]
    assert partition_units(one_repetition, 1) == [tuple(one_repetition)]
    assert partition_units([], 2) == []


def test_plan_respects_resume_store():
    config = tiny_config(models=("log_reg", "knn"))
    store = ResultStore()
    done = RunRecord(
        dataset="german",
        error_type="mislabels",
        detection="cleanlab",
        repair="flip_labels",
        model="log_reg",
        repetition=0,
        tuning_seed=0,
    )
    store.add(done)
    units = plan_work_units(
        config, store, datasets=("german",), error_types=("mislabels",)
    )
    by_rep = {unit.repetition: unit for unit in units}
    assert by_rep[0].cells == (("knn", 0),)
    assert by_rep[0].done_keys == (done.key,)
    assert by_rep[1].cells == (("log_reg", 0), ("knn", 0))


def test_plan_tracks_partially_completed_cells():
    """A cell missing only some repair variants stays pending, with its
    finished keys recorded so workers skip them."""
    config = tiny_config(n_repetitions=1)
    store = ResultStore()
    keys = expected_cell_keys("german", "missing_values", 0, "log_reg", 0)
    done = RunRecord.from_json(
        {**_payload_for_key(keys[0]), "metrics": {"dirty_test_acc": 0.5}}
    )
    store.add(done)
    (unit,) = plan_work_units(
        config, store, datasets=("german",), error_types=("missing_values",)
    )
    assert unit.cells == (("log_reg", 0),)
    assert unit.done_keys == (keys[0],)


def _payload_for_key(key: str) -> dict:
    dataset, error_type, detection, repair, model, rep, seed = key.split("/")
    return {
        "dataset": dataset,
        "error_type": error_type,
        "detection": detection,
        "repair": repair,
        "model": model,
        "repetition": int(rep.removeprefix("rep")),
        "tuning_seed": int(seed.removeprefix("seed")),
        "metrics": {},
    }


def test_plan_skips_unsupported_error_types():
    # heart does not declare missing_values
    units = plan_work_units(
        tiny_config(), ResultStore(), datasets=("heart",),
        error_types=("missing_values",),
    )
    assert units == []


def test_plan_rejects_unknown_error_type():
    with pytest.raises(ValueError, match="error type"):
        plan_work_units(
            tiny_config(), ResultStore(), datasets=("german",),
            error_types=("typos",),
        )


def test_plan_empty_when_store_complete(tmp_path):
    config = tiny_config()
    store = run_serial(config, tmp_path / "store.json", "mislabels")
    assert (
        plan_work_units(
            config, store, datasets=("german",), error_types=("mislabels",)
        )
        == []
    )


# -- parallel == serial -------------------------------------------------


def test_parallel_matches_serial_byte_identical(tmp_path):
    config = tiny_config()
    run_serial(config, tmp_path / "serial.json", "mislabels")

    parallel = ResultStore(tmp_path / "parallel.json")
    added = run_parallel_study(
        config,
        parallel,
        workers=4,
        datasets=("german",),
        error_types=("mislabels",),
    )
    assert added == 2
    assert (tmp_path / "serial.json").read_bytes() == (
        tmp_path / "parallel.json"
    ).read_bytes()
    # the journal was compacted into the JSON on save
    assert list(tmp_path.glob("*.jsonl")) == []


def test_parallel_matches_serial_missing_values(tmp_path):
    """Multi-version error type: 6 repairs per cell, shared dirty run."""
    config = tiny_config(n_repetitions=1)
    run_serial(config, tmp_path / "serial.json", "missing_values")

    parallel = ResultStore(tmp_path / "parallel.json")
    added = run_parallel_study(
        config,
        parallel,
        workers=2,
        datasets=("german",),
        error_types=("missing_values",),
    )
    assert added == 6
    assert (tmp_path / "serial.json").read_bytes() == (
        tmp_path / "parallel.json"
    ).read_bytes()


def test_clean_pool_run_checksums_each_new_record_once_in_the_parent(
    tmp_path, monkeypatch
):
    """The parent checksums each new record once, as it encodes the
    record's shard line. The save's journal replay finds every worker
    line's key already merged and skips it before computing a checksum."""
    parent = os.getpid()
    checksummed = []
    checksum = results_module.record_checksum

    def counted(payload):
        if os.getpid() == parent:
            checksummed.append(payload["repetition"])
        return checksum(payload)

    monkeypatch.setattr(results_module, "record_checksum", counted)
    store = ResultStore(tmp_path / "study.json")
    added = run_parallel_study(
        tiny_config(), store, workers=2, datasets=("german",),
        error_types=("mislabels",),
    )
    assert added == 2
    assert sorted(checksummed) == [0, 1]
    assert list(tmp_path.glob("*.jsonl")) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_store_grown_a_repetition_per_run_matches_one_run(
    tmp_path, monkeypatch, workers
):
    """A store grown by one run per repetition -- each save merging new
    records into compacted shard lines -- has the bytes of a store built
    by one run. Each run compresses each of its groups once, as the
    group's last unit merges: by the time the run saves, all of them
    are compressed."""
    datasets = ("german",)
    one = tmp_path / "one.json"
    run_parallel_study(tiny_config(n_repetitions=3), ResultStore(one), datasets=datasets)

    compressed = []
    before_save = []
    compress = results_module.compress_shard
    save = ResultStore.save

    def counted(name, body):
        compressed.append(name.split(".")[0])
        return compress(name, body)

    def observed_save(store):
        before_save.append(len(compressed))
        save(store)

    monkeypatch.setattr(results_module, "compress_shard", counted)
    monkeypatch.setattr(ResultStore, "save", observed_save)
    grown = tmp_path / "grown.json"
    for n_repetitions in (1, 2, 3):
        compressed.clear()
        run_parallel_study(
            tiny_config(n_repetitions=n_repetitions),
            ResultStore(grown),
            workers=workers,
            datasets=datasets,
        )
        assert Counter(compressed) == {
            f"german__{error_type}": 1
            for error_type in ("missing_values", "outliers", "mislabels")
        }
    assert before_save == [3, 3, 3]
    assert store_fingerprint(grown) == store_fingerprint(one)


# -- one pool task per (dataset, repetition) -----------------------------


def _two_dataset_config():
    return tiny_config(
        n_repetitions=1, dataset_sizes={"german": 600, "heart": 600}
    )


def _reuse_hits(store):
    hits = Counter()
    for event in obs.read_trace_events([store.trace_path]):
        if event.get("kind") == "metric" and event.get("name") == "reuse_hit":
            hits[event["labels"]["kind"]] += event["value"]
    return {kind: hits[kind] for kind in ("model_tune", "model_eval")}


def test_pool_tasks_share_tuned_results_like_a_serial_run(tmp_path):
    """Two datasets x one repetition on 2 workers: each worker runs one
    repetition's error types in turn, so it reuses tuned results
    exactly as often as the serial run does."""
    config = _two_dataset_config()
    hits = {}
    for workers in (1, 2):
        incremental.drop_repetition_results()
        store = ResultStore(tmp_path / f"w{workers}.json")
        run_parallel_study(
            config,
            store,
            workers=workers,
            datasets=("german", "heart"),
            options=ExecutorOptions(trace=True),
        )
        hits[workers] = _reuse_hits(store)
    assert hits[1]["model_tune"] > 0
    assert hits[2] == hits[1]
    assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w2.json").read_bytes()


def test_crashed_unit_retries_alone_while_its_siblings_merge(tmp_path):
    """A unit that crashes inside a grouped task does not take its
    siblings down: they merge in the first round, only it retries."""
    config = _two_dataset_config()
    datasets = ("german", "heart")
    serial = ResultStore(tmp_path / "serial.json")
    run_parallel_study(config, serial, workers=1, datasets=datasets)

    crash = Fault(
        kind="crash_pre_append",
        dataset="german",
        error_type="outliers",
        repetition=0,
        at=2,
    )
    lines = []
    store = ResultStore(tmp_path / "pooled.json")
    run_parallel_study(
        config,
        store,
        workers=2,
        datasets=datasets,
        progress=lines.append,
        options=ExecutorOptions(backoff_base=0, fault_plan=FaultPlan((crash,))),
    )
    retried = [line.split(":")[0] for line in lines if ": retry" in line]
    assert retried == ["german/outliers/rep0"]
    merged = [line.split(":")[0] for line in lines if ": +" in line]
    assert merged[-1] == "german/outliers/rep0"
    assert sorted(merged[:-1]) == [
        "german/mislabels/rep0",
        "german/missing_values/rep0",
        "heart/mislabels/rep0",
        "heart/outliers/rep0",
    ]
    assert (tmp_path / "serial.json").read_bytes() == (
        tmp_path / "pooled.json"
    ).read_bytes()


def test_parallel_is_noop_on_complete_store(tmp_path):
    config = tiny_config()
    store = run_serial(config, tmp_path / "store.json", "mislabels")
    assert (
        run_parallel_study(
            config, store, workers=2, datasets=("german",),
            error_types=("mislabels",),
        )
        == 0
    )


def test_parallel_supports_in_memory_store():
    config = tiny_config(n_repetitions=1)
    store = ResultStore()
    added = run_parallel_study(
        config, store, workers=1, datasets=("german",), error_types=("mislabels",)
    )
    assert added == 1 and len(store) == 1


# -- journal resume -----------------------------------------------------


def test_parallel_resumes_from_journal_shard(tmp_path):
    """Records journaled by a killed run are replayed at load and their
    cells are not recomputed."""
    config = tiny_config()
    reference = run_serial(config, tmp_path / "reference.json", "mislabels")
    rep0 = [record for record in reference.records() if record.repetition == 0]

    # simulate a worker killed after completing repetition 0: its shard
    # survives, but the compacted study.json was never written
    resumed_path = tmp_path / "resumed" / "study.json"
    resumed_path.parent.mkdir()
    with ResultStore(resumed_path).journal_writer(shard="w999") as journal:
        for record in rep0:
            journal.write(record)

    store = ResultStore(resumed_path)
    assert len(store) == len(rep0)
    units = plan_work_units(
        config, store, datasets=("german",), error_types=("mislabels",)
    )
    assert [unit.repetition for unit in units] == [1]

    added = run_parallel_study(
        config, store, workers=2, datasets=("german",), error_types=("mislabels",)
    )
    assert added == 2 - len(rep0)
    assert resumed_path.read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert list(resumed_path.parent.glob("*.jsonl")) == []


def test_parallel_resumes_partial_cell(tmp_path):
    """Only the missing repair variants of a half-finished cell are
    recomputed; finished records are preserved verbatim."""
    config = tiny_config(n_repetitions=1)
    reference = run_serial(config, tmp_path / "reference.json", "missing_values")
    records = list(reference.records())
    assert len(records) == 6
    half = records[:3]

    resumed_path = tmp_path / "resumed" / "study.json"
    resumed_path.parent.mkdir()
    with ResultStore(resumed_path).journal_writer(shard="w1") as journal:
        for record in half:
            journal.write(record)

    store = ResultStore(resumed_path)
    added = run_parallel_study(
        config, store, workers=2, datasets=("german",),
        error_types=("missing_values",),
    )
    assert added == 3
    assert resumed_path.read_bytes() == (tmp_path / "reference.json").read_bytes()


# -- wiring -------------------------------------------------------------


def _closure_definition():
    """German under a name the registry does not know, generated by a
    closure (which no worker process could receive)."""
    from dataclasses import replace

    from repro.datasets import load_dataset

    german, table = load_dataset("german", n_rows=600, seed=0)
    return replace(german, name="closure", generator=lambda n_rows, seed: table)


def test_unregistered_definition_rejected_by_process_pool(tmp_path):
    """A process-pool run refuses a custom definition before any work:
    its generator may be a closure no worker process can receive."""
    store = ResultStore(tmp_path / "study.json")
    with pytest.raises(ValueError, match="unregistered"):
        run_parallel_study(
            tiny_config(),
            store,
            workers=2,
            datasets=("german", _closure_definition()),
            error_types=("mislabels",),
        )
    assert len(store) == 0
    assert list(tmp_path.iterdir()) == []


def test_config_rejects_bad_workers():
    with pytest.raises(ValueError, match="workers"):
        StudyConfig(workers=0)
    with pytest.raises(ValueError, match="workers"):
        run_parallel_study(tiny_config(), ResultStore(), workers=0)


def test_workunit_is_picklable():
    import pickle

    unit = WorkUnit(
        dataset="german",
        error_type="mislabels",
        repetition=0,
        cells=(("log_reg", 0),),
        done_keys=("a/b",),
    )
    assert pickle.loads(pickle.dumps(unit)) == unit


def test_parallel_store_payload_is_valid_json(tmp_path):
    config = tiny_config(n_repetitions=1)
    store = ResultStore(tmp_path / "study.json")
    run_parallel_study(
        config, store, workers=2, datasets=("german",), error_types=("mislabels",)
    )
    payload = json.loads((tmp_path / "study.json").read_text())
    assert payload["format"] == "sharded-v1"
    (shard,) = payload["shards"]
    assert shard["dataset"] == "german"
    assert shard["error_type"] == "mislabels"
    assert shard["records"] == 1 == len(shard["keys"])
    record = next(ResultStore(tmp_path / "study.json").iter_records())
    assert record.repair == "flip_labels"


# -- backends -----------------------------------------------------------


def run_backend(tmp_path, backend, name, error_type="mislabels", **opt_overrides):
    from repro.benchmark import ExecutorOptions

    config = tiny_config()
    store = ResultStore(tmp_path / f"{name}.json")
    run_parallel_study(
        config,
        store,
        workers=2,
        datasets=("german",),
        error_types=(error_type,),
        options=ExecutorOptions(backend=backend, **opt_overrides),
    )
    return tmp_path / f"{name}.json"


def test_serial_backend_matches_process_pool(tmp_path):
    pooled = run_backend(tmp_path, "process", "pooled")
    serial = run_backend(tmp_path, "serial", "serialised")
    assert pooled.read_bytes() == serial.read_bytes()


def test_explicit_transports_are_byte_identical(tmp_path):
    from repro.benchmark import shared_memory_available

    pickled = run_backend(tmp_path, "process", "pickled", transport="pickle")
    if not shared_memory_available():
        pytest.skip("shared memory unavailable")
    shm = run_backend(tmp_path, "process", "shm", transport="shm")
    assert pickled.read_bytes() == shm.read_bytes()


def test_invalid_backend_and_transport_are_rejected():
    from repro.benchmark import BACKENDS, ExecutorOptions

    assert BACKENDS == ("process", "serial")
    with pytest.raises(ValueError, match="unknown backend"):
        ExecutorOptions(backend="fibers")
    with pytest.raises(ValueError, match="unknown transport"):
        ExecutorOptions(transport="carrier-pigeon")


def test_cell_deadline_falls_back_off_main_thread(tmp_path):
    """Off the main thread the SIGALRM watchdog degrades to a post-hoc
    monotonic check: the overrun still fails, and the degradation is
    counted in the trace."""
    import threading
    import time

    from repro import obs
    from repro.benchmark import CellTimeoutError
    from repro.benchmark.parallel import _cell_deadline

    trace_path = tmp_path / "trace.jsonl"
    outcome = {}

    def overrun():
        try:
            with _cell_deadline(0.01):
                time.sleep(0.05)
        except BaseException as error:  # noqa: BLE001
            outcome["error"] = error

    with obs.scoped(trace_path):
        worker = threading.Thread(target=overrun)
        worker.start()
        worker.join()
    assert isinstance(outcome.get("error"), CellTimeoutError)
    assert "post-hoc" in str(outcome["error"])
    events = obs.read_trace_events([trace_path])
    counters = [
        event
        for event in events
        if event.get("kind") == "metric"
        and event.get("name") == "cell_deadline_fallback"
    ]
    assert counters, "fallback must be visible as a warning counter"


def test_cell_deadline_on_main_thread_does_not_count_fallback(tmp_path):
    from repro import obs
    from repro.benchmark.parallel import _cell_deadline

    trace_path = tmp_path / "trace.jsonl"
    with obs.scoped(trace_path):
        with _cell_deadline(5.0):
            pass
    events = obs.read_trace_events([trace_path])
    assert not any(
        event.get("name") == "cell_deadline_fallback" for event in events
    )


# -- BLAS thread budget -------------------------------------------------


def _blas_thread_counts():
    counts = []
    for library in _loaded_openblas():
        for getter, setter in _OPENBLAS_THREAD_FUNCTIONS:
            if getattr(library, setter, None) is not None:
                counts.append(getattr(library, getter)())
                break
    return counts


def _worker_blas_thread_counts():
    with _pool_context().Pool(1, initializer=_single_blas_thread) as pool:
        return pool.apply(_blas_thread_counts)


def test_pool_workers_run_one_blas_thread():
    """Each OpenBLAS the worker finds reports one thread after the
    pool initializer, whatever the parent's setting."""
    parent_counts = _blas_thread_counts()
    if not parent_counts:
        pytest.skip("no OpenBLAS library loaded")
    assert _worker_blas_thread_counts() == [1] * len(parent_counts)
    assert _blas_thread_counts() == parent_counts


@pytest.mark.parametrize("outcome", ["complete", "abort", "poison"])
def test_in_process_run_caps_blas_threads_and_restores_them(
    tmp_path, monkeypatch, outcome
):
    """Units see one thread per OpenBLAS; the caller gets its own counts
    back whether the run completes, aborts or poisons a unit."""
    execute_unit = parallel._execute_unit
    seen = []

    def observed_execute_unit(task):
        seen.append(_blas_thread_counts())
        if outcome == "poison":
            return task[1], [], "RuntimeError: injected"
        return execute_unit(task)

    monkeypatch.setattr(parallel, "_execute_unit", observed_execute_unit)
    original = _set_blas_threads(2)
    try:
        if not original:
            pytest.skip("no OpenBLAS library loaded")
        options = ExecutorOptions(
            max_retries=0, abort_after_units=1 if outcome == "abort" else None
        )
        store = ResultStore(tmp_path / "store.json")

        def run():
            return run_parallel_study(
                tiny_config(n_repetitions=1),
                store,
                workers=1,
                datasets=("german",),
                error_types=("mislabels",),
                options=options,
            )

        if outcome == "abort":
            with pytest.raises(StudyAborted):
                run()
        else:
            assert run() == (0 if outcome == "poison" else 1)
        assert store.failures_path.exists() == (outcome == "poison")
        assert seen == [[1] * len(original)]
        assert _blas_thread_counts() == [2] * len(original)
    finally:
        _set_blas_threads(original)
