"""Tests for the isolation forest."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.ml import IsolationForest
from repro.ml.isolation import _average_path_length


def make_data_with_outliers(n=500, n_outliers=10, seed=0):
    rng = np.random.default_rng(seed)
    inliers = rng.normal(0.0, 1.0, size=(n - n_outliers, 2))
    outliers = rng.normal(0.0, 1.0, size=(n_outliers, 2)) + 12.0
    X = np.vstack([inliers, outliers])
    is_outlier = np.zeros(n, dtype=bool)
    is_outlier[-n_outliers:] = True
    return X, is_outlier


def test_outliers_get_higher_scores():
    X, is_outlier = make_data_with_outliers()
    forest = IsolationForest(n_estimators=50, random_state=1).fit(X)
    scores = forest.score_samples(X)
    assert scores[is_outlier].mean() > scores[~is_outlier].mean() + 0.1


def test_predict_outliers_flags_the_planted_points():
    X, is_outlier = make_data_with_outliers(n=500, n_outliers=5)
    forest = IsolationForest(
        n_estimators=100, contamination=0.01, random_state=2
    ).fit(X)
    flagged = forest.predict_outliers(X)
    # all five planted outliers are among the flagged points
    assert flagged[is_outlier].sum() == 5


def test_fit_keeps_the_training_flags_predict_outliers_gives():
    X, __ = make_data_with_outliers(seed=3)
    forest = IsolationForest(random_state=3).fit(X)
    assert forest.train_outliers_.any()
    assert forest.train_outliers_.tobytes() == forest.predict_outliers(X).tobytes()


def test_contamination_controls_flag_rate():
    X, __ = make_data_with_outliers()
    forest = IsolationForest(contamination=0.05, random_state=3).fit(X)
    rate = forest.predict_outliers(X).mean()
    assert rate <= 0.06


def test_scores_in_unit_interval():
    X, __ = make_data_with_outliers(n=200)
    forest = IsolationForest(n_estimators=20, random_state=4).fit(X)
    scores = forest.score_samples(X)
    assert (scores > 0).all() and (scores < 1).all()


def test_deterministic_under_seed():
    X, __ = make_data_with_outliers(n=200)
    a = IsolationForest(n_estimators=20, random_state=5).fit(X).score_samples(X)
    b = IsolationForest(n_estimators=20, random_state=5).fit(X).score_samples(X)
    assert np.array_equal(a, b)


def test_invalid_contamination():
    with pytest.raises(ValueError):
        IsolationForest(contamination=0.0)
    with pytest.raises(ValueError):
        IsolationForest(contamination=0.6)


def test_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        IsolationForest().fit(np.array([[1.0], [np.nan]]))


def test_unfitted_raises():
    with pytest.raises(RuntimeError):
        IsolationForest().score_samples(np.zeros((1, 2)))


def test_scoring_rejects_a_different_column_count():
    X, __ = make_data_with_outliers(n=100)
    forest = IsolationForest(n_estimators=5, random_state=0).fit(X)
    with pytest.raises(ValueError, match="2 columns"):
        forest.score_samples(X[:, :1])
    with pytest.raises(ValueError, match="2 columns"):
        forest.score_samples(np.hstack([X, X]))


def test_small_dataset_does_not_crash():
    X = np.array([[0.0], [1.0], [2.0]])
    forest = IsolationForest(n_estimators=5, contamination=0.3, random_state=0).fit(X)
    assert forest.score_samples(X).shape == (3,)


@dataclass
class _ITreeNode:
    feature: int
    threshold: float
    size: int
    left: "_ITreeNode | None" = None
    right: "_ITreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _build_itree(X, depth, max_depth, rng):
    """The recursive isolation-tree build the packed forest replaced."""
    n = X.shape[0]
    if depth >= max_depth or n <= 1:
        return _ITreeNode(feature=-1, threshold=0.0, size=n)
    spans = X.max(axis=0) - X.min(axis=0)
    splittable = np.nonzero(spans > 0)[0]
    if splittable.size == 0:
        return _ITreeNode(feature=-1, threshold=0.0, size=n)
    feature = int(rng.choice(splittable))
    low, high = X[:, feature].min(), X[:, feature].max()
    threshold = float(rng.uniform(low, high))
    goes_left = X[:, feature] < threshold
    return _ITreeNode(
        feature=feature,
        threshold=threshold,
        size=n,
        left=_build_itree(X[goes_left], depth + 1, max_depth, rng),
        right=_build_itree(X[~goes_left], depth + 1, max_depth, rng),
    )


def _recursive_path_lengths(node, X, rows, depth, out):
    if node.is_leaf:
        out[rows] = depth + _average_path_length(node.size)
        return
    goes_left = X[rows, node.feature] < node.threshold
    _recursive_path_lengths(node.left, X, rows[goes_left], depth + 1, out)
    _recursive_path_lengths(node.right, X, rows[~goes_left], depth + 1, out)


def _reference_scores(X_fit, X_score, n_trees, max_samples, seed):
    """Scores of a forest built and walked recursively, tree by tree."""
    rng = np.random.default_rng(seed)
    sub = min(max_samples, len(X_fit))
    max_depth = int(np.ceil(np.log2(max(2, sub))))
    trees = []
    for __ in range(n_trees):
        pick = rng.choice(len(X_fit), size=sub, replace=False)
        trees.append(_build_itree(X_fit[pick], 0, max_depth, rng))
    depths = np.zeros(len(X_score))
    buffer = np.empty(len(X_score))
    rows = np.arange(len(X_score))
    for tree in trees:
        _recursive_path_lengths(tree, X_score, rows, 0, buffer)
        depths += buffer
    return np.power(
        2.0, -(depths / n_trees) / max(_average_path_length(sub), 1e-12)
    )


def test_flat_walk_matches_recursive_reference():
    """The packed level-by-level traversal must be bit-identical to a
    pointer-chasing recursive descent of the same trees."""
    X, __ = make_data_with_outliers(n=400, seed=7)
    n_trees, sub, seed = 15, 64, 11
    forest = IsolationForest(
        n_estimators=n_trees, max_samples=sub, random_state=seed
    ).fit(X)
    reference = _reference_scores(X, X, n_trees, sub, seed)
    assert np.array_equal(forest.score_samples(X), reference)


def test_packed_forest_matches_recursive_reference_on_random_shapes():
    """Threshold and scores equal the recursive reference across
    shapes, constant and duplicate columns, all-constant inputs and
    tiny subsamples."""
    rng = np.random.default_rng(2024)
    for trial in range(24):
        n = int(rng.integers(2, 600))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n, d))
        if trial % 3 == 0:
            X[:, 0] = 1.5  # constant column
        if trial % 4 == 1 and d > 1:
            X[:, -1] = X[:, 0]  # duplicate column
        if trial % 5 == 2:
            X = np.round(X)  # many duplicate rows
        if trial % 8 == 7:
            X = np.ones_like(X)  # no column splits
        n_trees = int(rng.integers(1, 40))
        max_samples = int(rng.integers(2, 300))
        forest = IsolationForest(
            n_estimators=n_trees,
            max_samples=max_samples,
            contamination=0.05,
            random_state=trial,
        ).fit(X)
        X_other = rng.normal(size=(int(rng.integers(1, 50)), d))
        for X_score in (X, X_other):
            reference = _reference_scores(X, X_score, n_trees, max_samples, trial)
            assert np.array_equal(forest.score_samples(X_score), reference), trial
        expected_threshold = float(
            np.quantile(
                _reference_scores(X, X, n_trees, max_samples, trial),
                0.95,
                method="lower",
            )
        )
        assert forest.threshold_ == expected_threshold, trial
