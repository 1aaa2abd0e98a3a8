"""Tests for the three classifier families on separable synthetic data."""

import numpy as np
import pytest

from repro.ml import (
    GradientBoostedTreesClassifier,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
    boosting,
    clone,
    incremental,
    tree,
)
from repro.ml.base import BaseEstimator
from repro.ml.metrics import accuracy_score


def make_blobs(n=300, seed=0, separation=3.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n // 2, 2))
    X1 = rng.normal(separation, 1.0, size=(n - n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n // 2), np.ones(n - n // 2)]).astype(int)
    permutation = rng.permutation(n)
    return X[permutation], y[permutation]


ALL_MODELS = [
    LogisticRegressionClassifier(C=1.0),
    KNearestNeighborsClassifier(n_neighbors=5),
    GradientBoostedTreesClassifier(n_estimators=20, max_depth=3),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_separable_blobs_high_accuracy(model):
    X, y = make_blobs()
    model = clone(model)
    model.fit(X, y)
    assert accuracy_score(y, model.predict(X)) > 0.95


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_predict_proba_shape_and_normalisation(model):
    X, y = make_blobs(n=100)
    model = clone(model)
    model.fit(X, y)
    proba = model.predict_proba(X)
    assert proba.shape == (100, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert (proba >= 0).all() and (proba <= 1).all()


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_predict_consistent_with_proba(model):
    X, y = make_blobs(n=100)
    model = clone(model)
    model.fit(X, y)
    assert np.array_equal(
        model.predict(X), (model.predict_proba(X)[:, 1] >= 0.5).astype(int)
    )


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_nan_in_fit_rejected(model):
    X = np.array([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    y = np.array([0, 1, 1, 0])
    with pytest.raises(ValueError, match="NaN"):
        clone(model).fit(X, y)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_non_binary_labels_rejected(model):
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="0/1"):
        clone(model).fit(X, np.array([0, 1, 2, 1]))


def test_logreg_regularisation_shrinks_weights():
    X, y = make_blobs(separation=1.5)
    loose = LogisticRegressionClassifier(C=100.0).fit(X, y)
    tight = LogisticRegressionClassifier(C=0.001).fit(X, y)
    assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)


def test_logreg_invalid_C():
    with pytest.raises(ValueError):
        LogisticRegressionClassifier(C=0.0)


def test_logreg_decision_function_monotone_in_proba():
    X, y = make_blobs(n=60)
    model = LogisticRegressionClassifier().fit(X, y)
    logits = model.decision_function(X)
    proba = model.predict_proba(X)[:, 1]
    order = np.argsort(logits)
    assert np.all(np.diff(proba[order]) >= -1e-12)


def test_knn_k1_memorises_training_data():
    X, y = make_blobs(n=50, separation=1.0)
    model = KNearestNeighborsClassifier(n_neighbors=1).fit(X, y)
    assert accuracy_score(y, model.predict(X)) == 1.0


def test_knn_k_capped_at_train_size():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 1])
    model = KNearestNeighborsClassifier(n_neighbors=50).fit(X, y)
    proba = model.predict_proba(np.array([[0.5]]))
    assert proba[0, 1] == pytest.approx(2 / 3)


def test_knn_invalid_k():
    with pytest.raises(ValueError):
        KNearestNeighborsClassifier(n_neighbors=0)


def test_knn_feature_mismatch_on_predict():
    model = KNearestNeighborsClassifier().fit(np.zeros((5, 2)), np.array([0, 1, 0, 1, 0]))
    with pytest.raises(ValueError, match="features"):
        model.predict(np.zeros((2, 3)))


def test_knn_unfitted_raises():
    with pytest.raises(RuntimeError):
        KNearestNeighborsClassifier().predict(np.zeros((1, 2)))


def test_gbt_training_loss_decreases_with_more_trees():
    from repro.ml.metrics import log_loss

    X, y = make_blobs(n=200, separation=1.2, seed=3)
    few = GradientBoostedTreesClassifier(n_estimators=2, max_depth=2).fit(X, y)
    many = GradientBoostedTreesClassifier(n_estimators=40, max_depth=2).fit(X, y)
    assert log_loss(y, many.predict_proba(X)[:, 1]) < log_loss(
        y, few.predict_proba(X)[:, 1]
    )


def test_gbt_learns_xor_that_logreg_cannot():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    gbt = GradientBoostedTreesClassifier(n_estimators=40, max_depth=3).fit(X, y)
    logreg = LogisticRegressionClassifier().fit(X, y)
    assert accuracy_score(y, gbt.predict(X)) > 0.9
    assert accuracy_score(y, logreg.predict(X)) < 0.7


def test_gbt_presorts_once_per_fit_without_a_scope(monkeypatch):
    """A cold fit computes the root presort once for all its rounds,
    and predicts bit for bit what a fit under a reuse scope does."""
    calls = []
    presort_orders = tree.presort_orders

    def counted(X):
        calls.append(X.shape)
        return presort_orders(X)

    monkeypatch.setattr(tree, "presort_orders", counted)
    monkeypatch.setattr(boosting, "presort_orders", counted)
    X, y = make_blobs(n=150, separation=1.0, seed=7)
    params = dict(n_estimators=20, max_depth=3)
    cold = GradientBoostedTreesClassifier(**params).fit(X, y)
    assert len(calls) == 1
    with incremental.reuse_scope(incremental.ReuseScope()):
        scoped = GradientBoostedTreesClassifier(**params).fit(X, y)
    assert cold.predict_proba(X).tobytes() == scoped.predict_proba(X).tobytes()


def test_gbt_invalid_params():
    with pytest.raises(ValueError):
        GradientBoostedTreesClassifier(n_estimators=0)
    with pytest.raises(ValueError):
        GradientBoostedTreesClassifier(max_depth=0)


def test_clone_produces_unfitted_copy_with_same_params():
    model = GradientBoostedTreesClassifier(n_estimators=9, max_depth=4)
    copy = clone(model)
    assert copy.get_params() == model.get_params()
    with pytest.raises(RuntimeError):
        copy.decision_function(np.zeros((1, 2)))


def test_set_params_unknown_name_rejected():
    with pytest.raises(ValueError, match="hyperparameter"):
        LogisticRegressionClassifier().set_params(gamma=1.0)


def test_set_params_unknown_name_message():
    with pytest.raises(ValueError) as raised:
        LogisticRegressionClassifier().set_params(gamma=1.0)
    assert str(raised.value) == (
        "LogisticRegressionClassifier has no hyperparameter 'gamma'; "
        "valid: ['C', 'max_iter', 'tol']"
    )


def test_param_names_are_per_class():
    class First(BaseEstimator):
        def __init__(self, alpha=1, beta=2):
            self.alpha = alpha
            self.beta = beta

    class Second(First):
        def __init__(self, gamma=3, *args, **kwargs):
            super().__init__()
            self.gamma = gamma

    for _ in range(2):
        assert First._param_names() == ("alpha", "beta")
        assert Second._param_names() == ("gamma",)
    assert Second().set_params(gamma=4).get_params() == {"gamma": 4}
    with pytest.raises(ValueError, match="has no hyperparameter 'alpha'"):
        Second().set_params(alpha=0)
    assert clone(First(alpha=5)).get_params() == {"alpha": 5, "beta": 2}
