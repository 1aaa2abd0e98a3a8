"""Fast-path (``score_grid``) vs naive grid-search identity tests.

The shared-computation kernels must reproduce the clone-per-candidate
loop bit for bit: same per-candidate predictions, same ``cv_results_``
scores, same selected hyperparameters. These tests run both paths on
every model of the study registry (the paper's grids) and on richer
grids that actually exercise the sharing — including tie-heavy data
for the kNN boundary-tie fallback and subsampled boosting for the
RNG-prefix property.
"""

import numpy as np
import pytest

import repro.ml.knn as knn_module
from repro.benchmark.models import MODEL_NAMES, model_search
from repro.ml import (
    GradientBoostedTreesClassifier,
    GridSearchCV,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
    clone,
    split_single_parameter_grid,
)
from repro.ml.model_selection import StratifiedKFold, iter_grid_candidates


def make_data(n=240, d=6, seed=0, scale=1.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = ((X @ w + rng.normal(scale=scale, size=n)) > 0).astype(int)
    return X, y


def make_tied_data(n=160, d=4, seed=1, levels=2):
    """Integer features (binary by default): many duplicate rows, hence
    exact distance ties."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    y = rng.integers(0, 2, size=n)
    return X, y


def assert_searches_identical(naive, fast):
    assert naive.best_params_ == fast.best_params_
    assert naive.best_score_ == fast.best_score_
    assert [entry["params"] for entry in naive.cv_results_] == [
        entry["params"] for entry in fast.cv_results_
    ]
    assert [entry["score"] for entry in naive.cv_results_] == [
        entry["score"] for entry in fast.cv_results_
    ]


def fit_both_paths(estimator, grid, X, y, n_splits=3, random_state=7):
    naive = GridSearchCV(
        estimator, grid, n_splits=n_splits, random_state=random_state,
        use_fast_path=False,
    ).fit(X, y)
    fast = GridSearchCV(
        estimator, grid, n_splits=n_splits, random_state=random_state,
        use_fast_path=True,
    ).fit(X, y)
    return naive, fast


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_study_registry_grids_identical(name):
    """The paper's actual model grids select identically on both paths."""
    X, y = make_data(n=200, seed=3)
    naive = model_search(name, tuning_seed=11, fast_path=False).fit(X, y)
    fast = model_search(name, tuning_seed=11, fast_path=True).fit(X, y)
    assert_searches_identical(naive, fast)
    assert np.array_equal(naive.predict(X), fast.predict(X))


def test_knn_grid_identical_on_continuous_data():
    X, y = make_data(seed=0)
    naive, fast = fit_both_paths(
        KNearestNeighborsClassifier(), {"n_neighbors": [1, 3, 5, 9, 15, 31]}, X, y
    )
    assert_searches_identical(naive, fast)


def test_knn_grid_identical_under_distance_ties(monkeypatch):
    """Duplicate rows force boundary ties; the tie replay must repeat
    the naive argpartition selection exactly. The three-level cases run
    with small chunks, so the replay handles many tied rows per chunk
    and runs once per chunk, not once per call."""
    X, y = make_tied_data()
    naive, fast = fit_both_paths(
        KNearestNeighborsClassifier(),
        {"n_neighbors": [1, 3, 5, 7, 15]},
        X,
        y,
        random_state=3,
    )
    assert_searches_identical(naive, fast)

    monkeypatch.setattr(knn_module, "_CHUNK_TARGET_CELLS", 4_000)
    for seed in range(4):
        X, y = make_tied_data(n=80 + 60 * seed, d=1 + seed, seed=seed, levels=3)
        n_train = 2 * len(y) // 3
        values = [1, 2, 3, 5, 8, 13, 21, n_train, n_train + 7]
        fast = KNearestNeighborsClassifier().score_grid(
            X[:n_train], y[:n_train], X[n_train:], y[n_train:],
            [{"n_neighbors": k} for k in values],
        )
        for index, k in enumerate(values):
            model = KNearestNeighborsClassifier(n_neighbors=k)
            model.fit(X[:n_train], y[:n_train])
            assert np.array_equal(fast[index], model.predict(X[n_train:])), k


def test_knn_score_grid_matches_per_candidate_predictions():
    X, y = make_tied_data(seed=5)
    candidates = [{"n_neighbors": k} for k in (1, 2, 4, 8, 160, 500)]
    folds = list(StratifiedKFold(3, 0).split(y))
    for train_idx, test_idx in folds:
        fast = KNearestNeighborsClassifier().score_grid(
            X[train_idx], y[train_idx], X[test_idx], y[test_idx], candidates
        )
        assert fast.shape == (len(candidates), len(test_idx))
        for index, candidate in enumerate(candidates):
            model = clone(KNearestNeighborsClassifier()).set_params(**candidate)
            model.fit(X[train_idx], y[train_idx])
            assert np.array_equal(fast[index], model.predict(X[test_idx]))


def test_knn_chunk_distances_bit_equal_to_textbook_form():
    """In-place ``-2 G + train_sq`` equals ``train_sq - 2 G`` bit for bit."""
    rng = np.random.default_rng(9)
    cases = [make_data(n=300, d=d, seed=d) for d in (1, 6, 38)]
    cases += [make_tied_data(n=200, d=d, seed=d, levels=3) for d in (1, 4)]
    for X, y in cases:
        model = KNearestNeighborsClassifier().fit(X, y)
        for chunk in (X[:117], X[::-3], rng.normal(size=(64, X.shape[1]))):
            expected = model._train_sq[None, :] - 2.0 * (chunk @ X.T)
            assert model._chunk_distances(chunk).tobytes() == expected.tobytes()


def test_knn_caches_train_norms_at_fit_time():
    X, y = make_data(n=60)
    model = KNearestNeighborsClassifier(n_neighbors=3).fit(X, y)
    assert model._train_sq is not None
    np.testing.assert_array_equal(model._train_sq, np.sum(X**2, axis=1))
    first = model.predict_proba(X)
    second = model.predict_proba(X)
    np.testing.assert_array_equal(first, second)


def test_booster_staged_n_estimators_grid_identical():
    X, y = make_data(seed=2)
    naive, fast = fit_both_paths(
        GradientBoostedTreesClassifier(max_depth=3, learning_rate=0.2),
        {"n_estimators": [3, 6, 12]},
        X,
        y,
    )
    assert_searches_identical(naive, fast)


def test_booster_subsampled_multi_param_grid_identical():
    """Grouped staged evaluation with a live subsampling RNG: the
    m-round prefix of a longer run must equal an m-round fit."""
    X, y = make_data(seed=4)
    naive, fast = fit_both_paths(
        GradientBoostedTreesClassifier(
            learning_rate=0.2, subsample=0.7, random_state=5
        ),
        {"n_estimators": [3, 7], "max_depth": [2, 3]},
        X,
        y,
    )
    assert_searches_identical(naive, fast)


def test_logistic_warm_start_path_identical():
    X, y = make_data(seed=6)
    naive, fast = fit_both_paths(
        LogisticRegressionClassifier(),
        {"C": [0.003, 0.03, 0.3, 3.0, 30.0]},
        X,
        y,
    )
    assert_searches_identical(naive, fast)


def test_unsupported_grid_falls_back_to_naive():
    """A grid the estimator declines still searches correctly."""
    X, y = make_data(n=150, seed=8)
    naive, fast = fit_both_paths(
        GradientBoostedTreesClassifier(n_estimators=4),
        {"learning_rate": [0.1, 0.3]},
        X,
        y,
    )
    assert_searches_identical(naive, fast)
    assert (
        GradientBoostedTreesClassifier().score_grid(
            X, y, X, y, [{"learning_rate": 0.1}, {"learning_rate": 0.3}]
        )
        is None
    )


def test_score_grid_declines_single_candidate_and_bad_values():
    X, y = make_data(n=120, seed=9)
    knn = KNearestNeighborsClassifier()
    assert knn.score_grid(X, y, X, y, [{"n_neighbors": 5}]) is None
    assert knn.score_grid(
        X, y, X, y, [{"n_neighbors": 0}, {"n_neighbors": 5}]
    ) is None
    log_reg = LogisticRegressionClassifier()
    assert log_reg.score_grid(X, y, X, y, [{"C": -1.0}, {"C": 1.0}]) is None
    booster = GradientBoostedTreesClassifier()
    assert booster.score_grid(
        X, y, X, y, [{"n_estimators": 0}, {"n_estimators": 5}]
    ) is None


def test_split_single_parameter_grid_shapes():
    candidates = [{"C": 0.1, "max_iter": 50}, {"C": 1.0, "max_iter": 50}]
    fixed, name, values = split_single_parameter_grid(candidates)
    assert fixed == {"max_iter": 50}
    assert name == "C"
    assert values == [0.1, 1.0]
    # two varying keys: not a single-parameter grid
    assert split_single_parameter_grid(
        [{"C": 0.1, "max_iter": 50}, {"C": 1.0, "max_iter": 100}]
    ) is None
    assert split_single_parameter_grid([{"C": 0.1}]) is None


def test_cv_results_carry_timing_hook_on_both_paths():
    X, y = make_data(n=150, seed=10)
    naive, fast = fit_both_paths(
        KNearestNeighborsClassifier(), {"n_neighbors": [1, 5]}, X, y
    )
    for search in (naive, fast):
        for entry in search.cv_results_:
            assert entry["fit_seconds"] >= 0.0
            assert entry["score_seconds"] >= 0.0


def test_iter_grid_candidates_shared_between_searches():
    grid = {"a": [1, 2], "b": [3, 4]}
    assert list(iter_grid_candidates(grid)) == [
        {"a": 1, "b": 3},
        {"a": 2, "b": 3},
        {"a": 1, "b": 4},
        {"a": 2, "b": 4},
    ]
