"""Cold-vs-incremental differential tests.

The smoke tests run in tier-1 and pin the headline contract on a few
configurations, one of them two repetitions of all three error types,
whose units share tuned results across error types; the
``identity``-marked matrix (opt-in, see ``tests/conftest.py``) sweeps
each error type on its own across every backend x transport
combination with all three model families.
"""

import json
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro import StudyConfig
from repro.benchmark import ExperimentRunner, ResultStore, run_parallel_study
from repro.ml import GridSearchCV, incremental
from repro.benchmark.transport import shared_memory_available
from repro.datasets import load_dataset
from repro.testing.fixtures import chaos_config

ERROR_TYPES = ("missing_values", "outliers", "mislabels")

#: (backend, transport): the serial executor backend and both
#: process-pool dataset transports. Transport only crosses a process
#: boundary, so the serial backend pins it to "auto".
BACKEND_MATRIX = [
    ("serial", "auto"),
    ("process", "pickle"),
    pytest.param(
        "process",
        "shm",
        marks=pytest.mark.skipif(
            not shared_memory_available(),
            reason="POSIX shared memory + fork unavailable",
        ),
    ),
]


def test_incremental_smoke_byte_identical(assert_cells_identical):
    """Tier-1 smoke: one config, serial backend, store bytes identical."""
    assert_cells_identical()


def test_incremental_smoke_all_models(assert_cells_identical):
    """Tier-1 smoke: every model family shares one warm repetition."""
    assert_cells_identical(
        chaos_config(models=("log_reg", "knn", "xgboost"), n_repetitions=1)
    )


@pytest.mark.parametrize(
    ("backend", "n_repetitions"),
    [
        pytest.param("serial", 2, id="serial"),
        # two (dataset, repetition) groups fill both workers: one pool
        # task per repetition
        pytest.param("process", 2, id="process"),
        # one group for two workers: one pool task per unit
        pytest.param("process", 1, id="process-per-unit"),
    ],
)
def test_sibling_units_share_tuned_results_byte_identical(
    assert_cells_identical, backend, n_repetitions
):
    """All three error types: the units of one repetition reuse each
    other's tuned models, bytes unchanged, under either partition of
    the process pool's tasks."""
    assert_cells_identical(
        chaos_config(models=("log_reg", "knn"), n_repetitions=n_repetitions),
        backend=backend,
        error_types=ERROR_TYPES,
    )


def _digest(*arrays) -> bytes:
    return b"".join(
        zlib.crc32(np.ascontiguousarray(array).tobytes()).to_bytes(4, "big")
        for array in arrays
    )


@pytest.mark.parametrize(("reuse", "searches"), [(False, 3), (True, 1)])
def test_dirty_split_is_tuned_once_per_repetition(monkeypatch, reuse, searches):
    """The three error types' dirty versions train on the split's
    complete rows; with reuse on, one grid search serves all three."""
    repetition: list[int] = []
    dirty_digests: dict[int, set[bytes]] = {}
    fits: Counter = Counter()
    run_cells = ExperimentRunner.run_repetition_cells
    features_for = ExperimentRunner._features_for
    fit = GridSearchCV.fit

    def spy_run_cells(self, definition, table, error_type, rep, *args, **kwargs):
        repetition[:] = [rep]
        return run_cells(self, definition, table, error_type, rep, *args, **kwargs)

    def spy_features_for(self, definition, version):
        features = features_for(self, definition, version)
        if version.name == "dirty":
            dirty_digests.setdefault(repetition[0], set()).add(
                _digest(features[0], version.train_labels)
            )
        return features

    def spy_fit(self, X, y):
        fits[(repetition[0], _digest(X, y))] += 1
        return fit(self, X, y)

    monkeypatch.setattr(ExperimentRunner, "run_repetition_cells", spy_run_cells)
    monkeypatch.setattr(ExperimentRunner, "_features_for", spy_features_for)
    monkeypatch.setattr(GridSearchCV, "fit", spy_fit)
    # results an earlier test's units left in this process would add hits
    incremental.drop_repetition_results()
    config = chaos_config(incremental=reuse)
    run_parallel_study(config, ResultStore(), datasets=("german",))
    assert sorted(dirty_digests) == [0, 1]
    for rep, digests in dirty_digests.items():
        (dirty,) = digests  # the same training bytes in every error type
        assert fits[(rep, dirty)] == searches


@pytest.mark.identity
@pytest.mark.parametrize("error_type", ERROR_TYPES)
@pytest.mark.parametrize(("backend", "transport"), BACKEND_MATRIX)
def test_incremental_matrix_byte_identical(
    assert_cells_identical, backend, transport, error_type
):
    """Full matrix: 3 models x 3 error types x every backend/transport."""
    assert_cells_identical(
        chaos_config(models=("log_reg", "knn", "xgboost")),
        backend=backend,
        transport=transport,
        error_types=(error_type,),
    )


def _unit_records(config, dataset, error_type, repetition):
    definition, table = load_dataset(
        dataset, n_rows=config.dataset_size(dataset), seed=config.generation_seed
    )
    store = ResultStore()
    cells = [(model, 0) for model in config.models]
    ExperimentRunner(config, store).run_repetition_cells(
        definition, table, error_type, repetition, cells
    )
    return [
        json.dumps(record.to_json(), sort_keys=True)
        for record in sorted(store.iter_records(), key=lambda record: record.key)
    ]


@pytest.mark.parametrize(("dataset", "repetition"), [("adult", 9), ("folk", 14)])
def test_logistic_outlier_cell_identical_with_and_without_reuse(dataset, repetition):
    """The two outlier cells whose logistic records once depended on reuse.

    At the committed store's scale, a logistic warm start across cleaned
    versions produced records here that a cold run did not. Every fit
    now starts cold, so the reuse scope must leave these cells untouched.
    """
    config = StudyConfig(
        n_sample=3_000,
        test_fraction=0.4,
        n_repetitions=repetition + 1,
        models=("log_reg",),
    )
    warm = _unit_records(config, dataset, "outliers", repetition)
    cold = _unit_records(
        replace(config, incremental=False), dataset, "outliers", repetition
    )
    assert warm and warm == cold
