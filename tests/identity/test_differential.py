"""Cold-vs-incremental differential tests.

The smoke test runs in tier-1 and pins the headline contract on one
configuration; the ``identity``-marked matrix (opt-in, see
``tests/conftest.py``) sweeps all three error types across every
backend x transport combination with all three model families.
"""

import json
from dataclasses import replace

import pytest

from repro import StudyConfig
from repro.benchmark import ExperimentRunner, ResultStore
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
