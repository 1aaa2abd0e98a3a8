"""L2-regularised logistic regression.

Fitted by minimising the penalised negative log-likelihood

    L(w, b) = -sum_i log p_i + ||w||^2 / (2 C)

with scipy's L-BFGS-B and an analytic gradient. The intercept is not
penalised, matching scikit-learn's behaviour for the paper's tuned ``C``.

``fit`` always starts the solver from zeros, so a fitted model does not
depend on what was fitted before it. The one warm-started path is
``score_grid``, which walks a ``C`` grid in ascending order on a single
train/test split.

The solver gets the loss and the gradient as separate callables: one
pass over ``X`` computes both and keeps the gradient for its point,
which skips scipy's wrapper for combined objectives. ``_sigmoid``
evaluates one ``exp`` over the whole array. Both feed the same
floating-point operations to the same inputs as the masked two-branch
sigmoid and the combined ``(loss, gradient)`` objective, so every
solver path, and every fitted coefficient, is bit-identical to theirs.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy import optimize

from repro.ml.base import BaseClassifier, clone, split_single_parameter_grid


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    One ``exp(-|z|)`` over the whole array, then ``1 / (1 + e)`` where
    ``z >= 0`` and ``e / (1 + e)`` elsewhere: each element sees the
    same ``exp`` input and the same arithmetic as a masked two-branch
    evaluation, so the values are bit-identical to it.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class LogisticRegressionClassifier(BaseClassifier):
    """Binary logistic regression with inverse regularisation strength C.

    Args:
        C: Inverse of the L2 penalty weight (larger C = weaker penalty).
        max_iter: L-BFGS iteration budget.
        tol: Optimiser convergence tolerance.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200, tol: float = 1e-6) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def _solve(self, X: np.ndarray, y_float: np.ndarray, theta0: np.ndarray) -> np.ndarray:
        """Minimise the penalised NLL from ``theta0`` via L-BFGS-B.

        The loss and its gradient come from one pass over ``X``; the
        gradient is kept for the last ``theta`` and returned by the
        solver's ``jac`` call at that same point.
        """
        n_features = X.shape[1]
        penalty = 1.0 / (2.0 * self.C)
        last: list[np.ndarray] = []

        def loss_and_grad(theta: np.ndarray) -> float:
            w, b = theta[:n_features], theta[n_features]
            z = X @ w + b
            p = _sigmoid(z)
            # log-likelihood via the numerically stable log1p formulation;
            # logaddexp's exp may differ from _sigmoid's by an ulp, so the
            # loss keeps its own
            loss = float(
                np.add.reduce(np.logaddexp(0.0, z) - y_float * z)
                + penalty * (w @ w)
            )
            residual = p - y_float
            grad = np.empty(n_features + 1)
            grad[:n_features] = X.T @ residual + 2.0 * penalty * w
            grad[n_features] = np.add.reduce(residual)
            last[:] = [theta.copy(), grad]
            return loss

        def gradient(theta: np.ndarray) -> np.ndarray:
            if not (last and (theta == last[0]).all()):
                loss_and_grad(theta)
            return last[1]

        result = optimize.minimize(
            loss_and_grad,
            theta0,
            jac=gradient,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        return result.x

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegressionClassifier":
        """Fit by L-BFGS-B from zeros.

        Every fit starts cold, inside an incremental reuse scope or
        not, so ``coef_`` and ``intercept_`` are a pure function of
        ``(X, y, C, max_iter, tol)``. Only :meth:`score_grid` walks a
        warm-started path, and only across the ``C`` grid of one split.
        """
        X, y = self._check_fit_inputs(X, y)
        n_features = X.shape[1]
        theta = self._solve(X, y.astype(np.float64), np.zeros(n_features + 1))
        self.coef_ = theta[:n_features]
        self.intercept_ = float(theta[n_features])
        return self

    def score_grid(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
        candidates: "list[dict[str, Any]]",
    ) -> np.ndarray | None:
        """Evaluate a ``C`` grid by warm-starting along the sorted path.

        Candidates are solved from the most regularised ``C`` upward,
        each L-BFGS run starting from the previous solution, which
        typically converges in a fraction of the cold-start
        iterations. Unlike the kNN and boosting fast paths this is not
        identical by construction — warm and cold starts can stop at
        slightly different points within the optimiser tolerance — but
        predictions only differ if a test logit crosses zero inside
        that tolerance band, which the identity tests pin down on the
        study's data. Returns ``None`` for anything but a pure
        positive ``C`` grid.
        """
        spec = split_single_parameter_grid(candidates)
        if spec is None or spec[1] != "C":
            return None
        fixed, __, values = spec
        if any(
            not isinstance(value, (int, float, np.integer, np.floating))
            or value <= 0
            for value in values
        ):
            return None
        model = clone(self).set_params(**fixed)
        X, y = model._check_fit_inputs(X_train, y_train)
        X_eval = model._check_predict_inputs(X_test)
        y_float = y.astype(np.float64)
        order = sorted(range(len(values)), key=lambda index: values[index])
        predictions = np.empty((len(values), X_eval.shape[0]), dtype=np.int64)
        theta = np.zeros(X.shape[1] + 1)
        for index in order:
            model.C = values[index]
            theta = model._solve(X, y_float, theta.copy())
            logits = X_eval @ theta[: X.shape[1]] + float(theta[X.shape[1]])
            predictions[index] = _sigmoid(logits) >= 0.5
        return predictions

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw logits ``X @ coef_ + intercept_``."""
        if self.coef_ is None:
            raise RuntimeError("LogisticRegressionClassifier is not fitted")
        X = self._check_predict_inputs(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])
