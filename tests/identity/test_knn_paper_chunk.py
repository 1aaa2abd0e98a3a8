"""Bit pins of the paper-scale kNN distance chunks.

At :meth:`StudyConfig.paper_scale` a split keeps 10,500 training rows,
so the kNN test rows go through ``_chunk_distances`` in chunks of 380
(``_CHUNK_TARGET_CELLS // 10_500``). The committed store's matrices
fit in one chunk, so no study pin covers this shape; this one does.
The distances of every chunk ``predict_proba`` forms over the 4,500
test rows, and its predictions, are hashed on seeded data shaped like
a featurised table (standardised numeric columns and one-hot blocks),
on one OpenBLAS thread as in a study process. Another chunk size moves
the distance digest: the same rows in a matrix of another height can
sum in another order.

Tuning goes through ``score_grid`` on 3-fold splits of the training
rows: one such split keeps 7,000 of the 10,500 rows, so its 3,500
held-out rows are scored in chunks of 571. The ``(3, n_test)``
predictions for the study's ``n_neighbors`` grid (5, 15, 31) on the
first stratified split are pinned too.

Regenerate the pins only for an intentional output change::

    PYTHONPATH=src python tests/identity/test_knn_paper_chunk.py
"""

import hashlib

import numpy as np
import pytest

from repro.benchmark.config import StudyConfig
from repro.benchmark.models import model_search
from repro.benchmark.parallel import _set_blas_threads
from repro.ml import knn
from repro.ml.model_selection import StratifiedKFold

pytestmark = pytest.mark.identity

PINS = {
    "chunk_distances": "30ae4ac9f0b0526b",
    "predict_proba": "887c795b6f9a72ed",
    "score_grid": "be34465bbf85ec3f",
}


def paper_shape() -> tuple[int, int]:
    config = StudyConfig.paper_scale()
    n_test = int(round(config.n_sample * config.test_fraction))
    return config.n_sample - n_test, n_test


def seeded_table(n_rows: int, rng: np.random.Generator) -> np.ndarray:
    numeric = rng.normal(size=(n_rows, 6))
    one_hot = [
        np.eye(width)[rng.integers(0, width, size=n_rows)] for width in (2, 5, 9, 16)
    ]
    return np.hstack([numeric, *one_hot])


def paper_data() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_train, n_test = paper_shape()
    rng = np.random.default_rng(20230403)
    X_train = seeded_table(n_train, rng)
    y_train = (X_train[:, 0] + rng.normal(size=n_train) > 0).astype(np.int64)
    X_test = seeded_table(n_test, rng)
    return X_train, y_train, X_test


def knn_grid() -> list[dict[str, int]]:
    return [{"n_neighbors": k} for k in model_search("knn").param_grid["n_neighbors"]]


def first_fold(y_train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return next(StratifiedKFold(3, 0).split(y_train))


def digests() -> dict[str, str]:
    X_train, y_train, X_test = paper_data()
    n_train, n_test = paper_shape()
    model = knn.KNearestNeighborsClassifier(n_neighbors=15).fit(X_train, y_train)
    chunk_rows = knn._CHUNK_TARGET_CELLS // n_train
    distances = hashlib.sha256()
    previous = _set_blas_threads(1)
    try:
        # the chunks predict_proba forms, one at a time
        for start in range(0, n_test, chunk_rows):
            chunk = model._chunk_distances(X_test[start : start + chunk_rows])
            distances.update(chunk.tobytes())
        proba = model.predict_proba(X_test)
        fit_idx, held_idx = first_fold(y_train)
        grid = knn.KNearestNeighborsClassifier().score_grid(
            X_train[fit_idx], y_train[fit_idx],
            X_train[held_idx], y_train[held_idx], knn_grid(),
        )
    finally:
        _set_blas_threads(previous)
    return {
        "chunk_distances": distances.hexdigest()[:16],
        "predict_proba": hashlib.sha256(proba.tobytes()).hexdigest()[:16],
        "score_grid": hashlib.sha256(grid.tobytes()).hexdigest()[:16],
    }


def test_paper_scale_splits_knn_test_rows_into_chunks_of_380():
    n_train, n_test = paper_shape()
    assert (n_train, n_test) == (10_500, 4_500)
    assert knn._CHUNK_TARGET_CELLS // n_train == 380


def test_paper_scale_tuning_split_scores_in_chunks_of_571():
    assert knn_grid() == [{"n_neighbors": k} for k in (5, 15, 31)]
    __, y_train, __ = paper_data()
    fit_idx, held_idx = first_fold(y_train)
    assert knn._CHUNK_TARGET_CELLS // len(fit_idx) == 571
    assert len(held_idx) > 571


def test_paper_scale_knn_chunk_bits_are_pinned():
    assert digests() == PINS


if __name__ == "__main__":
    print(digests())
