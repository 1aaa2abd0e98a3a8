"""Tests for folds, splitting and grid search."""

import numpy as np
import pytest

from repro.ml import (
    BaseClassifier,
    GridSearchCV,
    KFold,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
    StratifiedKFold,
    cross_val_predict_proba,
    train_test_split,
)


def test_kfold_covers_all_indices_exactly_once():
    seen = []
    for __, test in KFold(n_splits=4, random_state=0).split(20):
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(20))


def test_kfold_train_test_disjoint():
    for train, test in KFold(n_splits=3, random_state=1).split(15):
        assert not set(train) & set(test)
        assert len(train) + len(test) == 15


def test_kfold_too_few_samples():
    with pytest.raises(ValueError):
        list(KFold(n_splits=5).split(3))


def test_kfold_invalid_n_splits():
    with pytest.raises(ValueError):
        KFold(n_splits=1)


def test_stratified_kfold_preserves_ratio():
    y = np.array([0] * 40 + [1] * 10)
    for __, test in StratifiedKFold(n_splits=5, random_state=0).split(y):
        positives = y[test].sum()
        assert positives == 2  # 10 positives over 5 folds


def test_stratified_kfold_rare_class_guard():
    y = np.array([0] * 10 + [1] * 2)
    with pytest.raises(ValueError, match="class"):
        list(StratifiedKFold(n_splits=5).split(y))


def test_stratified_kfold_partition():
    y = np.array([0, 1] * 10)
    seen = []
    for __, test in StratifiedKFold(n_splits=2, random_state=3).split(y):
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(20))


def test_train_test_split_shapes():
    X = np.arange(40).reshape(20, 2)
    y = np.arange(20) % 2
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, 0.25, np.random.default_rng(0)
    )
    assert X_train.shape == (15, 2)
    assert X_test.shape == (5, 2)
    assert len(y_train) == 15 and len(y_test) == 5


def test_train_test_split_keeps_pairs_aligned():
    X = np.arange(20).reshape(20, 1)
    y = np.arange(20)
    X_train, X_test, y_train, y_test = train_test_split(
        X, y, 0.3, np.random.default_rng(7)
    )
    assert np.array_equal(X_train[:, 0], y_train)
    assert np.array_equal(X_test[:, 0], y_test)


def test_train_test_split_length_mismatch():
    with pytest.raises(ValueError):
        train_test_split(np.zeros((3, 1)), np.zeros(4), 0.5, np.random.default_rng(0))


def make_blobs(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n // 2, 2))
    X1 = rng.normal(2.5, 1.0, size=(n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)]).astype(int)
    return X, y


def test_grid_search_picks_some_candidate_and_scores():
    X, y = make_blobs()
    search = GridSearchCV(
        LogisticRegressionClassifier(),
        {"C": [0.01, 1.0, 100.0]},
        n_splits=3,
        random_state=0,
    ).fit(X, y)
    assert search.best_params_["C"] in (0.01, 1.0, 100.0)
    assert 0.5 < search.best_score_ <= 1.0
    assert len(search.cv_results_) == 3


def test_grid_search_refits_on_full_data():
    X, y = make_blobs()
    search = GridSearchCV(
        KNearestNeighborsClassifier(), {"n_neighbors": [1, 5]}, n_splits=3
    ).fit(X, y)
    assert search.predict(X).shape == (len(y),)
    assert search.predict_proba(X).shape == (len(y), 2)


@pytest.mark.parametrize(
    ("estimator", "grid"),
    [
        (LogisticRegressionClassifier(), {"C": [0.01, 1.0, 100.0]}),
        (KNearestNeighborsClassifier(), {"n_neighbors": [1, 5, 15]}),
    ],
)
def test_grid_search_refit_matches_fit(estimator, grid):
    """Refitting with a search's outcome predicts as the search does."""
    X, y = make_blobs()
    searched = GridSearchCV(estimator, grid, n_splits=3, random_state=4).fit(X, y)
    refitted = GridSearchCV(estimator, grid, n_splits=3, random_state=4).refit(
        X, y, searched.best_params_, searched.best_score_
    )
    assert refitted.best_params_ == searched.best_params_
    assert refitted.best_params_ is not searched.best_params_
    assert refitted.best_score_ == searched.best_score_
    assert refitted.predict_proba(X).tobytes() == searched.predict_proba(X).tobytes()
    assert refitted.cv_results_ == []


def test_grid_search_multi_param_grid_size():
    X, y = make_blobs()
    search = GridSearchCV(
        LogisticRegressionClassifier(),
        {"C": [0.1, 1.0], "max_iter": [50, 100]},
        n_splits=3,
    ).fit(X, y)
    assert len(search.cv_results_) == 4


def test_grid_search_empty_grid_rejected():
    with pytest.raises(ValueError):
        GridSearchCV(LogisticRegressionClassifier(), {})


def test_grid_search_unfitted_raises():
    search = GridSearchCV(LogisticRegressionClassifier(), {"C": [1.0]})
    with pytest.raises(RuntimeError):
        search.predict(np.zeros((1, 2)))


def test_grid_search_deterministic_under_seed():
    X, y = make_blobs()
    a = GridSearchCV(
        LogisticRegressionClassifier(), {"C": [0.1, 1.0, 10.0]}, random_state=5
    ).fit(X, y)
    b = GridSearchCV(
        LogisticRegressionClassifier(), {"C": [0.1, 1.0, 10.0]}, random_state=5
    ).fit(X, y)
    assert a.best_params_ == b.best_params_
    assert a.best_score_ == b.best_score_


class _ConstantClassifier(BaseClassifier):
    """Predicts all-positive regardless of ``flavor``: every candidate
    of a ``flavor`` grid scores identically, exposing tie-breaking."""

    def __init__(self, flavor: int = 0) -> None:
        self.flavor = flavor

    def fit(self, X, y):
        self._check_fit_inputs(X, y)
        return self

    def predict_proba(self, X):
        X = self._check_predict_inputs(X)
        return np.column_stack([np.zeros(len(X)), np.ones(len(X))])


def test_grid_search_tie_breaking_first_candidate_wins():
    """The fast path's byte-identical guarantee depends on strict ``>``
    selection: on equal mean scores the first candidate in odometer
    order must win. Pinned here as a regression contract."""
    X, y = make_blobs(n=60)
    for use_fast_path in (False, True):
        search = GridSearchCV(
            _ConstantClassifier(),
            {"flavor": [7, 1, 3]},
            n_splits=3,
            use_fast_path=use_fast_path,
        ).fit(X, y)
        scores = [entry["score"] for entry in search.cv_results_]
        assert scores[0] == scores[1] == scores[2]
        assert search.best_params_ == {"flavor": 7}


def test_grid_search_equal_scoring_duplicate_values_pick_first():
    X, y = make_blobs()
    search = GridSearchCV(
        KNearestNeighborsClassifier(),
        {"n_neighbors": [5, 5, 5]},
        n_splits=3,
    ).fit(X, y)
    scores = [entry["score"] for entry in search.cv_results_]
    assert len(set(scores)) == 1
    assert search.best_score_ == scores[0]


def test_stratified_kfold_assignment_deterministic_across_calls():
    """Identical folds from repeated splits and fresh splitter objects —
    the fast path scores the same folds the naive path would."""
    y = (np.arange(40) % 3 == 0).astype(int)
    first = [
        (train.tolist(), test.tolist())
        for train, test in StratifiedKFold(4, 9).split(y)
    ]
    again = [
        (train.tolist(), test.tolist())
        for train, test in StratifiedKFold(4, 9).split(y)
    ]
    assert first == again


def test_stratified_kfold_assignment_pinned():
    """Exact fold membership for a fixed (y, seed); any change to the
    assignment algorithm breaks stored-study reproducibility."""
    y = np.array([0, 1] * 8 + [0, 0, 1, 1])
    folds = [sorted(test.tolist()) for __, test in StratifiedKFold(3, 42).split(y)]
    assert folds == [
        [3, 8, 9, 10, 13, 14, 15, 16],
        [6, 7, 11, 12, 17, 18],
        [0, 1, 2, 4, 5, 19],
    ]


def test_cross_val_predict_proba_out_of_fold():
    X, y = make_blobs(n=100)
    proba = cross_val_predict_proba(
        LogisticRegressionClassifier(), X, y, n_splits=5, random_state=0
    )
    assert proba.shape == (100,)
    assert ((proba >= 0) & (proba <= 1)).all()
    # separable data: out-of-fold probabilities should still classify well
    assert np.mean((proba >= 0.5).astype(int) == y) > 0.9
