"""Gradient-boosted decision trees with logistic loss.

A compact xgboost-style booster: each round fits a second-order
regression tree to the logistic-loss gradients/hessians and adds the
shrunken leaf values to the running logit. Every round fits on all
rows, so one root presort serves every tree of a fit. This is the
study's stand-in for xgboost — same model family, same tuned
``max_depth`` hyperparameter.
"""

from __future__ import annotations

import numpy as np

from repro.ml import incremental
from repro.ml.base import BaseClassifier
from repro.ml.logistic import _sigmoid
from repro.ml.tree import _GradientTree, presort_orders


class GradientBoostedTreesClassifier(BaseClassifier):
    """Binary gradient boosting on logistic loss.

    Args:
        n_estimators: Number of boosting rounds.
        max_depth: Depth of each tree (the paper's tuned parameter).
        learning_rate: Shrinkage applied to each tree's contribution.
        reg_lambda: L2 penalty on leaf values.
        min_child_weight: Minimum hessian mass per leaf.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 3,
        learning_rate: float = 0.15,
        reg_lambda: float = 1.0,
        min_child_weight: float = 1.0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self._trees: list[_GradientTree] = []
        self._base_logit: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTreesClassifier":
        X, y = self._check_fit_inputs(X, y)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        y_float = y.astype(np.float64)
        positive_rate = float(np.clip(y_float.mean(), 1e-6, 1 - 1e-6))
        self._base_logit = float(np.log(positive_rate / (1.0 - positive_rate)))
        logits = np.full(X.shape[0], self._base_logit)
        # every round's tree sorts the same X: the presort is a pure
        # function of its bytes, so one computation serves all rounds —
        # and, via the scope memo, every other fit on a byte-equal
        # matrix (other grid candidates on the same fold, other
        # versions sharing features)
        scope = incremental.active()
        if scope is not None:
            orders = scope.memo("tree_presort", (X,), (), lambda: presort_orders(X))
        else:
            orders = presort_orders(X)
        self._trees = []
        for __ in range(self.n_estimators):
            p = _sigmoid(logits)
            gradients = p - y_float
            hessians = np.maximum(p * (1.0 - p), 1e-6)
            tree = _GradientTree(
                max_depth=self.max_depth,
                lam=self.reg_lambda,
                min_child_weight=self.min_child_weight,
                min_split_gain=0.0,
            )
            tree.fit(X, gradients, hessians, orders=orders)
            logits = logits + self.learning_rate * tree.predict(X)
            self._trees.append(tree)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw boosted logits."""
        if not self._trees:
            raise RuntimeError("GradientBoostedTreesClassifier is not fitted")
        X = self._check_predict_inputs(X)
        logits = np.full(X.shape[0], self._base_logit)
        for tree in self._trees:
            logits = logits + self.learning_rate * tree.predict(X)
        return logits

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])
