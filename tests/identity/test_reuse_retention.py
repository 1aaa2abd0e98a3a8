"""What a ``ReuseScope`` keeps alive stays small next to the versions.

A scope lives as long as its work unit, and an outliers unit prepares
ten dataset versions, so anything memoised per version is held ten
times over until the unit ends. This pins the budget: after a real
knn + log_reg outliers unit, the scope's memoised values total no more
bytes than the versions' own feature matrices. An n_test × n_train
block per version (what a kNN distance memo would store) is more than
twice that budget at this scale.

Tuned-model results outlive their unit: the process keeps them for the
sibling units of the same ``(dataset, repetition)``. What outlives a
unit is pinned here too: hyperparameters, scores and prediction
vectors only, one repetition at a time, dropped when an in-process run
returns, and never the arrays the scope fingerprinted.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.benchmark import (
    ExecutorOptions,
    ExperimentRunner,
    ResultStore,
    StudyAborted,
    StudyConfig,
    run_parallel_study,
)
from repro.datasets import load_dataset
from repro.ml import incremental
from repro.testing.fixtures import chaos_config

ERROR_TYPES = ("missing_values", "outliers", "mislabels")


def _array_bytes(value) -> int:
    """Bytes of every ndarray reachable through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        return _array_bytes(list(value.values()))
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(item) for item in value)
    return 0


def _arrays(value) -> list[np.ndarray]:
    """Every ndarray reachable through tuples, lists and dict keys/values."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        return _arrays(list(value.items()))
    if isinstance(value, (tuple, list)):
        return [array for item in value for array in _arrays(item)]
    return []


@pytest.fixture(autouse=True)
def _no_held_results():
    incremental.drop_repetition_results()
    yield
    incremental.drop_repetition_results()


def _held() -> tuple[tuple, dict]:
    held = incremental._REPETITION_RESULTS
    assert held is not None
    return held


def _run_units(config, repetition, error_types=ERROR_TYPES, dataset="german"):
    definition, table = load_dataset(
        dataset, n_rows=config.dataset_size(dataset), seed=config.generation_seed
    )
    runner = ExperimentRunner(config, ResultStore())
    cells = [(model, 0) for model in config.models]
    for error_type in error_types:
        runner.run_repetition_cells(definition, table, error_type, repetition, cells)
    return runner.store


def test_scope_memo_is_bounded_by_the_feature_matrices(monkeypatch):
    scopes: list[incremental.ReuseScope] = []
    prepared: list = []

    class RecordingScope(incremental.ReuseScope):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            scopes.append(self)

    prepare = ExperimentRunner._prepare_versions

    def recording_prepare(self, *args, **kwargs):
        versions = prepare(self, *args, **kwargs)
        prepared.append(versions)
        return versions

    monkeypatch.setattr(incremental, "ReuseScope", RecordingScope)
    monkeypatch.setattr(ExperimentRunner, "_prepare_versions", recording_prepare)

    config = StudyConfig(
        n_sample=600,
        n_repetitions=1,
        models=("knn", "log_reg"),
        dataset_sizes={"german": 600},
    )
    definition, table = load_dataset("german", n_rows=600, seed=0)
    added = ExperimentRunner(config, ResultStore()).run_repetition_cells(
        definition, table, "outliers", 0, [("knn", 0), ("log_reg", 0)]
    )
    assert added > 0

    (scope,) = scopes
    (versions,) = prepared
    dirty, repaired = versions
    assert len(repaired) >= 5
    matrices = {
        id(matrix): matrix
        for version in (dirty, *repaired)
        for matrix in version.features
    }
    feature_bytes = sum(matrix.nbytes for matrix in matrices.values())
    memo_bytes = _array_bytes(list(scope._memo.values())) + _array_bytes(
        list(scope._results.values())
    )
    assert memo_bytes <= feature_bytes, (
        f"ReuseScope holds {memo_bytes} bytes of memoised arrays, more than "
        f"the {feature_bytes} bytes of the versions' feature matrices"
    )


def _assert_only_results(results: dict) -> None:
    """Tuned hyperparameters and scores, plus one prediction vector per
    whole evaluation: no feature matrix, presort or fitted model."""
    assert {key[0] for key in results} == {"model_eval", "model_tune"}
    assert not _arrays(list(results))  # keys are fingerprints, not arrays
    for (kind, _extra, _fingerprints), value in results.items():
        arrays = _arrays(value)
        if kind == "model_tune":
            assert arrays == []
            continue
        (predictions,) = arrays
        assert predictions is value[2]
        assert predictions.ndim == 1 and predictions.dtype == np.int64


def test_results_outliving_a_unit_hold_only_prediction_vectors():
    config = chaos_config(models=("log_reg", "knn"), n_repetitions=1)
    _run_units(config, 0)
    key, results = _held()
    assert key == ("german", 0)
    _assert_only_results(results)


def test_results_are_replaced_when_the_repetition_changes():
    config = chaos_config(
        models=("log_reg",), dataset_sizes={"german": 600, "heart": 600}
    )
    _run_units(config, 0)
    first_key, first = _held()
    _run_units(config, 1, error_types=("mislabels",))
    key, results = _held()
    assert (first_key, key) == (("german", 0), ("german", 1))
    assert results is not first and not results.keys() & first.keys()
    _run_units(config, 1, error_types=("mislabels",), dataset="heart")
    assert _held()[0] == ("heart", 1)


@pytest.mark.parametrize("abort", [False, True])
def test_in_process_run_drops_results_when_it_returns(monkeypatch, abort):
    """Results are gone after the run, whether it returns or raises."""
    held_at_drop: list = []
    drop = incremental.drop_repetition_results

    def recording_drop():
        held_at_drop.append(incremental._REPETITION_RESULTS)
        drop()

    monkeypatch.setattr(incremental, "drop_repetition_results", recording_drop)
    config = chaos_config(models=("log_reg",))
    if abort:
        with pytest.raises(StudyAborted):
            run_parallel_study(
                config,
                ResultStore(),
                datasets=("german",),
                options=ExecutorOptions(abort_after_units=2),
            )
    else:
        run_parallel_study(config, ResultStore(), datasets=("german",))
    (held,) = held_at_drop
    assert held is not None and held[1]  # the run did share results
    assert incremental._REPETITION_RESULTS is None


def test_fingerprinted_arrays_do_not_outlive_their_unit(monkeypatch):
    fingerprinted: list[weakref.ref] = []
    fingerprint = incremental.ReuseScope.fingerprint

    def recording_fingerprint(self, array):
        fingerprinted.append(weakref.ref(array))
        return fingerprint(self, array)

    monkeypatch.setattr(incremental.ReuseScope, "fingerprint", recording_fingerprint)
    # the booster memoises presort orders of every fold's matrix
    config = chaos_config(models=("log_reg", "xgboost"), n_repetitions=1)
    _run_units(config, 0, error_types=("mislabels",))
    gc.collect()
    assert len(fingerprinted) > 4
    alive = [ref() for ref in fingerprinted if ref() is not None]
    assert not alive, f"{len(alive)} fingerprinted array(s) outlived their unit"
    _assert_only_results(_held()[1])
