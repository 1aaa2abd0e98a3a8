"""The kNN row-blocked neighbour selection against the one-call form.

``predict_proba`` and ``score_grid`` turn each block of 64 product rows
into half-distances in place and select neighbours with
``argpartition`` over that block, keeping only the selected columns,
and release each chunk's distances before the next chunk's product.
The references below keep the selection they replaced: one
``argpartition`` over a whole chunk of textbook distances
(``_chunk_distances``), whose full-width index array is sliced
afterwards. Both must give the same bits, and the blocked
form must stay within one chunk's distances plus one 64-row index
block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.ml import KNearestNeighborsClassifier
from repro.ml import knn as knn_module
from tests.ml.test_score_grid import make_data, make_tied_data


def chunk_starts(model, X):
    n_train = model._X.shape[0]
    chunk_rows = max(1, knn_module._CHUNK_TARGET_CELLS // max(1, n_train))
    return chunk_rows, range(0, X.shape[0], chunk_rows)


def reference_predict_proba(model, X):
    """``predict_proba`` with one ``argpartition`` call per chunk."""
    k = min(model.n_neighbors, model._X.shape[0])
    chunk_rows, starts = chunk_starts(model, X)
    positives = np.empty(X.shape[0], dtype=np.float64)
    for start in starts:
        distances = model._chunk_distances(X[start : start + chunk_rows])
        neighbor_idx = np.argpartition(distances, k - 1, axis=1)[:, :k]
        positives[start : start + chunk_rows] = model._y[neighbor_idx].mean(axis=1)
    return np.column_stack([1.0 - positives, positives])


def reference_score_grid(X_train, y_train, X_test, values):
    """``score_grid`` with one ``argpartition`` call per chunk for the
    top block, and one per chunk and ``k`` for the tie replay."""
    model = KNearestNeighborsClassifier().fit(X_train, y_train)
    n_train = model._X.shape[0]
    ks = [min(int(value), n_train) for value in values]
    block = min(max(ks) + 1, n_train)
    chunk_rows, starts = chunk_starts(model, X_test)
    positives = np.empty((len(ks), X_test.shape[0]), dtype=np.float64)
    for start in starts:
        chunk = X_test[start : start + chunk_rows]
        distances = model._chunk_distances(chunk)
        if block < n_train:
            block_idx = np.argpartition(distances, block - 1, axis=1)[:, :block]
        else:
            block_idx = np.broadcast_to(np.arange(n_train), (chunk.shape[0], n_train))
        block_vals = np.take_along_axis(distances, block_idx, axis=1)
        order = np.argsort(block_vals, axis=1, kind="stable")
        sorted_vals = np.take_along_axis(block_vals, order, axis=1)
        sorted_labels = np.take_along_axis(model._y[block_idx], order, axis=1)
        prefix = np.cumsum(sorted_labels, axis=1)
        for index, k in enumerate(ks):
            votes = prefix[:, k - 1] / k
            if k < n_train:
                tied_rows = np.nonzero(sorted_vals[:, k] == sorted_vals[:, k - 1])[0]
                if tied_rows.size:
                    neighbor_idx = np.argpartition(
                        distances[tied_rows], k - 1, axis=1
                    )[:, :k]
                    votes[tied_rows] = model._y[neighbor_idx].mean(axis=1)
            positives[index, start : start + chunk_rows] = votes
    return (positives >= 0.5).astype(np.int64)


def assert_matches_reference(X, y, n_train, values):
    X_train, y_train, X_test = X[:n_train], y[:n_train], X[n_train:]
    for k in values:
        model = KNearestNeighborsClassifier(n_neighbors=k).fit(X_train, y_train)
        expected = reference_predict_proba(model, X_test)
        assert model.predict_proba(X_test).tobytes() == expected.tobytes(), k
    fast = KNearestNeighborsClassifier().score_grid(
        X_train, y_train, X_test, y[n_train:],
        [{"n_neighbors": k} for k in values],
    )
    expected = reference_score_grid(X_train, y_train, X_test, values)
    assert fast.tobytes() == expected.tobytes()


def test_selection_row_block_is_64():
    assert knn_module._SELECT_ROWS == 64


@pytest.mark.parametrize("n_rows", [150, 201, 331])
def test_blocked_selection_matches_one_call_on_continuous_data(n_rows):
    """Test row counts that are not multiples of 64 leave a short block."""
    X, y = make_data(n=n_rows, d=5, seed=n_rows)
    assert_matches_reference(X, y, 2 * n_rows // 5, [1, 4, 5, 15, 31])


def make_one_hot_data(n, seed):
    """One-hot blocks of three categorical columns, as the featurizer
    encodes them: every row is one of 24 patterns, so its distances take
    a few values and tie at almost every boundary."""
    rng = np.random.default_rng(seed)
    X = np.hstack(
        [np.eye(levels)[rng.integers(0, levels, size=n)] for levels in (2, 3, 4)]
    )
    return X, rng.integers(0, 2, size=n)


@pytest.mark.parametrize("seed", [*range(3), "one-hot-across-chunks"])
def test_blocked_selection_matches_one_call_under_ties(seed, monkeypatch):
    """Three-level integer features: many boundary ties, so the tie
    replay selects over tied rows spread across several row blocks.
    The one-hot case splits its tied rows across 90-row chunks, each
    turned into half-distances block by block."""
    if seed == "one-hot-across-chunks":
        monkeypatch.setattr(knn_module, "_CHUNK_TARGET_CELLS", 90 * 100)
        X, y = make_one_hot_data(n=100 + 3 * 90 + 37, seed=5)
    else:
        X, y = make_tied_data(n=230 + 70 * seed, d=2 + seed, seed=seed, levels=3)
    assert (X.shape[0] - 100) % 64
    assert_matches_reference(X, y, 100, [1, 2, 3, 5, 8, 13, 21])


def test_blocked_selection_matches_one_call_across_chunks(monkeypatch):
    """Small chunks of 150 rows: several chunks, each split into row
    blocks of 64, 64 and 22."""
    monkeypatch.setattr(knn_module, "_CHUNK_TARGET_CELLS", 150 * 120)
    X, y = make_data(n=520, d=4, seed=7)
    assert_matches_reference(X, y, 120, [1, 5, 15, 31])
    X, y = make_tied_data(n=520, d=3, seed=8, levels=3)
    assert_matches_reference(X, y, 120, [1, 2, 5, 15, 31])


@pytest.mark.parametrize("make", [make_data, make_tied_data])
def test_blocked_selection_matches_one_call_at_full_neighbourhoods(make):
    """``k == n_train`` selects every training row; ``kmax + 1 >=
    n_train`` takes ``score_grid``'s whole-row block branch."""
    X, y = make(n=170, d=3, seed=11)
    n_train = 40
    assert_matches_reference(X, y, n_train, [n_train - 1, n_train, n_train + 9])
    assert_matches_reference(X, y, n_train, [1, 3, n_train - 1])


def traced_peak(call):
    call()  # first-call imports are not the kernel's memory
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_one_distance_chunk_plus_one_row_block(monkeypatch):
    """Eight chunks of 100 × 4,000 distances: the traced peak of
    ``predict_proba`` and of ``score_grid`` stays below one distance
    chunk plus one 64-row index block. Keeping the previous chunk alive
    through the next product, or a full-width index array per chunk,
    each adds a whole chunk."""
    n_train, chunk_rows, n_test = 4_000, 100, 730
    monkeypatch.setattr(knn_module, "_CHUNK_TARGET_CELLS", n_train * chunk_rows)
    X, y = make_data(n=n_train + n_test, d=6, seed=13)
    X_train, y_train, X_test = X[:n_train], y[:n_train], X[n_train:]
    distance_block = chunk_rows * n_train * np.dtype(np.float64).itemsize
    index_block = knn_module._SELECT_ROWS * n_train * np.dtype(np.intp).itemsize
    bound = distance_block + index_block + 1024 * 1024

    model = KNearestNeighborsClassifier(n_neighbors=15).fit(X_train, y_train)
    assert traced_peak(lambda: model.predict_proba(X_test)) <= bound
    candidates = [{"n_neighbors": k} for k in (5, 15, 31)]
    grid = lambda: KNearestNeighborsClassifier().score_grid(  # noqa: E731
        X_train, y_train, X_test, y[n_train:], candidates
    )
    assert traced_peak(grid) <= bound
