"""Property-based tests for the ML substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import StandardScaler
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    log_loss,
)

_labels = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=60)


@st.composite
def label_pairs(draw):
    y_true = draw(_labels)
    n = len(y_true)
    y_pred = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(y_true), np.array(y_pred)


@given(label_pairs())
def test_confusion_matrix_partitions_examples(pair):
    y_true, y_pred = pair
    cm = confusion_matrix(y_true, y_pred)
    assert cm.total == len(y_true)
    assert cm.tp + cm.fn == int((y_true == 1).sum())
    assert cm.tn + cm.fp == int((y_true == 0).sum())


@given(label_pairs())
def test_accuracy_equals_confusion_accuracy(pair):
    y_true, y_pred = pair
    assert accuracy_score(y_true, y_pred) == confusion_matrix(y_true, y_pred).accuracy


@given(label_pairs())
def test_f1_bounded(pair):
    y_true, y_pred = pair
    assert 0.0 <= f1_score(y_true, y_pred) <= 1.0


@given(label_pairs())
def test_perfect_prediction_metrics(pair):
    y_true, __ = pair
    assert accuracy_score(y_true, y_true) == 1.0
    if y_true.sum() > 0:
        assert f1_score(y_true, y_true) == 1.0


@given(_labels)
def test_log_loss_of_true_labels_is_minimal(labels):
    y = np.array(labels, dtype=float)
    assert log_loss(y, y) <= log_loss(y, np.full(len(y), 0.5)) + 1e-12


@given(
    st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=50)
def test_scaler_transform_is_affine_invertible(rows):
    X = np.array(rows)
    scaler = StandardScaler().fit(X)
    Z = scaler.transform(X)
    recovered = Z * scaler.scale_ + scaler.mean_
    assert np.allclose(recovered, X, rtol=1e-6, atol=1e-6)
