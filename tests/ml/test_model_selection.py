"""Tests for folds, splitting and grid search."""

import numpy as np
import pytest

from repro.ml import (
    BaseClassifier,
    GridSearchCV,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
    StratifiedKFold,
    cross_val_predict_proba,
)


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
