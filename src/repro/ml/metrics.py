"""Classification metrics for binary tasks.

All functions take 0/1 integer arrays. The confusion-matrix layout
follows the (tn, fp, fn, tp) convention the paper's result store uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion-matrix counts."""

    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        """Total number of scored examples."""
        return self.tn + self.fp + self.fn + self.tp

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions (NaN when empty)."""
        if self.total == 0:
            return float("nan")
        return (self.tp + self.tn) / self.total

    @property
    def precision(self) -> float:
        """TP / (TP + FP); NaN when no positive predictions."""
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else float("nan")

    @property
    def recall(self) -> float:
        """TP / (TP + FN); NaN when no positive examples."""
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else float("nan")

    @property
    def false_positive_rate(self) -> float:
        """FP / (FP + TN); NaN when no negative examples."""
        denominator = self.fp + self.tn
        return self.fp / denominator if denominator else float("nan")

    @property
    def selection_rate(self) -> float:
        """Fraction of positive predictions (NaN when empty)."""
        if self.total == 0:
            return float("nan")
        return (self.tp + self.fp) / self.total

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall; 0 when undefined."""
        precision, recall = self.precision, self.recall
        if np.isnan(precision) or np.isnan(recall) or precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    def as_dict(self) -> dict[str, int]:
        """Counts in the result-store key order."""
        return {"tn": self.tn, "fp": self.fp, "fn": self.fn, "tp": self.tp}

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            self.tn + other.tn,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tp + other.tp,
        )


def _validate(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() > 1):
            bad = np.setdiff1d(np.unique(arr), (0, 1))
            raise ValueError(f"{name} must be 0/1, found {bad}")
    return y_true, y_pred


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    """Compute the binary confusion matrix."""
    y_true, y_pred = _validate(y_true, y_pred)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions."""
    y_true, y_pred = _validate(y_true, y_pred)
    if y_true.size == 0:
        return float("nan")
    return float(np.mean(y_true == y_pred))


def f1_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """F1 of the positive class."""
    return confusion_matrix(y_true, y_pred).f1


def log_loss(y_true: np.ndarray, probabilities: np.ndarray) -> float:
    """Mean negative log-likelihood of the positive-class probabilities.

    ``probabilities`` is the P(y=1) vector; values are clipped away from
    0 and 1 for numerical stability.
    """
    y_true = np.asarray(y_true).astype(np.float64)
    p = np.clip(np.asarray(probabilities, dtype=np.float64), 1e-12, 1 - 1e-12)
    if y_true.shape != p.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {p.shape}")
    return float(-np.mean(y_true * np.log(p) + (1 - y_true) * np.log(1 - p)))
