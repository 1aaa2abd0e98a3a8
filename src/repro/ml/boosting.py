"""Gradient-boosted decision trees with logistic loss.

A compact xgboost-style booster: each round fits a second-order
regression tree to the logistic-loss gradients/hessians and adds the
shrunken leaf values to the running logit. Supports row subsampling
for stochastic boosting. This is the study's stand-in for xgboost —
same model family, same tuned ``max_depth`` hyperparameter.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml import incremental
from repro.ml.base import BaseClassifier, clone
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
        subsample: Row subsampling fraction per round (1.0 = off).
        random_state: Seed for subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 3,
        learning_rate: float = 0.15,
        reg_lambda: float = 1.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.reg_lambda = reg_lambda
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.random_state = random_state
        self._trees: list[_GradientTree] = []
        self._base_logit: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTreesClassifier":
        X, y = self._check_fit_inputs(X, y)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        self._boost(X, y, self.n_estimators)
        return self

    def _boost(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n_rounds: int,
        X_eval: np.ndarray | None = None,
        eval_rounds: "set[int] | None" = None,
    ) -> dict[int, np.ndarray]:
        """Run the boosting loop, optionally snapshotting staged logits.

        The single training loop behind both :meth:`fit` and
        :meth:`score_grid`. When ``X_eval`` is given, its logits are
        accumulated round by round — the same additions in the same
        order as :meth:`decision_function` performs after the fact —
        and copies are captured after each round listed in
        ``eval_rounds``. Returns the captured ``{round: logits}``
        snapshots (empty when ``X_eval`` is None).
        """
        rng = np.random.default_rng(self.random_state)
        y_float = y.astype(np.float64)
        positive_rate = float(np.clip(y_float.mean(), 1e-6, 1 - 1e-6))
        self._base_logit = float(np.log(positive_rate / (1.0 - positive_rate)))
        logits = np.full(X.shape[0], self._base_logit)
        eval_logits = (
            np.full(X_eval.shape[0], self._base_logit) if X_eval is not None else None
        )
        snapshots: dict[int, np.ndarray] = {}
        scope = incremental.active()
        shared_orders: "list[np.ndarray] | None" = None
        if scope is not None and self.subsample == 1.0:
            # without subsampling every round's tree sorts the same X:
            # the presort is a pure function of its bytes, so one
            # computation serves all rounds — and, via the scope memo,
            # every other fit on a byte-equal matrix (other grid shape
            # groups on the same fold, other versions sharing features)
            shared_orders = scope.memo(
                "tree_presort", (X,), (), lambda: presort_orders(X)
            )
        self._trees = []
        for round_index in range(n_rounds):
            p = _sigmoid(logits)
            gradients = p - y_float
            hessians = np.maximum(p * (1.0 - p), 1e-6)
            if self.subsample < 1.0:
                n_rows = max(1, int(round(self.subsample * X.shape[0])))
                rows = rng.choice(X.shape[0], size=n_rows, replace=False)
            else:
                rows = np.arange(X.shape[0])
            tree = _GradientTree(
                max_depth=self.max_depth,
                lam=self.reg_lambda,
                min_child_weight=self.min_child_weight,
                min_split_gain=0.0,
            )
            if shared_orders is not None:
                # rows is arange here: X[rows] would be a byte-equal
                # copy of X, so fitting on X with the shared presort is
                # bit-identical while skipping the copy and the sorts
                tree.fit(X, gradients, hessians, orders=shared_orders)
            else:
                tree.fit(X[rows], gradients[rows], hessians[rows])
            update = tree.predict(X)
            logits = logits + self.learning_rate * update
            self._trees.append(tree)
            if eval_logits is not None:
                eval_logits = eval_logits + self.learning_rate * tree.predict(X_eval)
                if eval_rounds is not None and round_index + 1 in eval_rounds:
                    snapshots[round_index + 1] = eval_logits.copy()
        return snapshots

    def score_grid(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
        candidates: "list[dict[str, Any]]",
    ) -> np.ndarray | None:
        """Evaluate the grid with one boosting run per distinct tree shape.

        Candidates are grouped by every parameter except
        ``n_estimators``; each group trains once to its largest round
        budget while staged test logits are snapshotted at every
        requested budget. Because each round's tree (and the
        subsampling RNG draw) depends only on the preceding rounds, an
        ``m``-round prefix of a longer run is bitwise identical to an
        ``m``-round fit, and the staged logits replay
        ``decision_function``'s accumulation exactly — so every
        candidate's predictions match a cold clone-fit bit for bit.
        """
        if len(candidates) < 2:
            return None
        valid_names = set(self._param_names())
        key_set = set(candidates[0])
        if any(set(candidate) != key_set for candidate in candidates):
            return None
        if not key_set <= valid_names:
            return None
        budgets = [
            candidate.get("n_estimators", self.n_estimators)
            for candidate in candidates
        ]
        if any(
            not isinstance(budget, (int, np.integer)) or budget < 1
            for budget in budgets
        ):
            return None
        groups: dict[tuple, list[int]] = {}
        try:
            for index, candidate in enumerate(candidates):
                key = tuple(
                    sorted(
                        (name, value)
                        for name, value in candidate.items()
                        if name != "n_estimators"
                    )
                )
                groups.setdefault(key, []).append(index)
        except TypeError:
            return None
        if all(len(members) == 1 for members in groups.values()):
            # every candidate needs its own training run: nothing shared,
            # so the naive loop is just as fast
            return None
        predictions: np.ndarray | None = None
        for key, members in groups.items():
            model = clone(self).set_params(**dict(key))
            X, y = model._check_fit_inputs(X_train, y_train)
            if X.shape[0] == 0:
                return None
            X_eval = model._check_predict_inputs(X_test)
            if predictions is None:
                predictions = np.empty(
                    (len(candidates), X_eval.shape[0]), dtype=np.int64
                )
            rounds = {int(budgets[index]) for index in members}
            snapshots = model._boost(
                X, y, max(rounds), X_eval=X_eval, eval_rounds=rounds
            )
            for index in members:
                predictions[index] = _sigmoid(snapshots[int(budgets[index])]) >= 0.5
        return predictions

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
