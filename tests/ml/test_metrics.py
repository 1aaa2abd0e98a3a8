"""Tests for repro.ml.metrics."""

import numpy as np
import pytest

from repro.ml.metrics import (
    ConfusionMatrix,
    accuracy_score,
    confusion_matrix,
    f1_score,
    log_loss,
)

Y_TRUE = np.array([1, 1, 0, 0, 1, 0])
Y_PRED = np.array([1, 0, 0, 1, 1, 0])


def test_confusion_matrix_counts():
    cm = confusion_matrix(Y_TRUE, Y_PRED)
    assert (cm.tn, cm.fp, cm.fn, cm.tp) == (2, 1, 1, 2)


def test_confusion_matrix_total_matches_input():
    assert confusion_matrix(Y_TRUE, Y_PRED).total == len(Y_TRUE)


def test_accuracy():
    assert accuracy_score(Y_TRUE, Y_PRED) == pytest.approx(4 / 6)


def test_precision_recall_f1():
    cm = confusion_matrix(Y_TRUE, Y_PRED)
    assert cm.precision == pytest.approx(2 / 3)
    assert cm.recall == pytest.approx(2 / 3)
    assert f1_score(Y_TRUE, Y_PRED) == pytest.approx(2 / 3)


def test_precision_nan_when_no_positive_predictions():
    cm = confusion_matrix(np.array([1, 0]), np.array([0, 0]))
    assert np.isnan(cm.precision)


def test_recall_nan_when_no_positives():
    cm = confusion_matrix(np.array([0, 0]), np.array([0, 1]))
    assert np.isnan(cm.recall)


def test_f1_zero_when_degenerate():
    assert f1_score(np.array([1, 0]), np.array([0, 0])) == 0.0


def test_false_positive_rate():
    cm = confusion_matrix(Y_TRUE, Y_PRED)
    assert cm.false_positive_rate == pytest.approx(1 / 3)


def test_selection_rate():
    cm = confusion_matrix(Y_TRUE, Y_PRED)
    assert cm.selection_rate == pytest.approx(3 / 6)


def test_confusion_matrix_addition():
    cm = confusion_matrix(Y_TRUE, Y_PRED)
    doubled = cm + cm
    assert doubled.tp == 2 * cm.tp
    assert doubled.total == 2 * cm.total


def test_as_dict_key_order():
    cm = ConfusionMatrix(tn=1, fp=2, fn=3, tp=4)
    assert list(cm.as_dict()) == ["tn", "fp", "fn", "tp"]


def test_non_binary_labels_rejected():
    with pytest.raises(ValueError, match="0/1"):
        confusion_matrix(np.array([0, 2]), np.array([0, 1]))


def test_non_binary_labels_message_names_the_bad_values():
    with pytest.raises(ValueError) as raised:
        accuracy_score(np.array([0, 1, 2, -1]), np.array([0, 0, 0, 0]))
    assert str(raised.value) == "y_true must be 0/1, found [-1  2]"
    with pytest.raises(ValueError) as raised:
        f1_score(np.array([0, 0, 1, 1]), np.array([2, 0, -1, 1]))
    assert str(raised.value) == "y_pred must be 0/1, found [-1  2]"


def test_empty_labels_accepted():
    empty = np.array([], dtype=np.int64)
    assert confusion_matrix(empty, empty).total == 0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        accuracy_score(np.array([0, 1]), np.array([0]))


def test_log_loss_perfect_predictions_near_zero():
    assert log_loss(np.array([1, 0]), np.array([1.0, 0.0])) < 1e-10


def test_log_loss_uninformative_is_ln2():
    assert log_loss(np.array([1, 0]), np.array([0.5, 0.5])) == pytest.approx(
        np.log(2)
    )


def test_empty_confusion_matrix_accuracy_nan():
    assert np.isnan(ConfusionMatrix(0, 0, 0, 0).accuracy)
