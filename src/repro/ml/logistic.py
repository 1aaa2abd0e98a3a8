"""L2-regularised logistic regression.

Fitted by minimising the penalised negative log-likelihood

    L(w, b) = -sum_i log p_i + ||w||^2 / (2 C)

with L-BFGS-B and an analytic gradient. The intercept is not
penalised, matching scikit-learn's behaviour for the paper's tuned ``C``.

``fit`` always starts the solver from zeros, so a fitted model does not
depend on what was fitted before it. The one warm-started path is
``score_grid``, which walks a ``C`` grid in ascending order on a single
train/test split.

``_lbfgsb_minimize`` drives scipy's compiled L-BFGS-B routine
``setulb`` in the same loop, with the same settings, as
``scipy.optimize.minimize(method="L-BFGS-B")``, but asks the objective
for the loss and the gradient in one call per point, without scipy's
wrapper objects around each evaluation. The objective works in place
where that is exact, and ``_sigmoid`` evaluates one ``exp`` and one
division over the whole array. The solver therefore sees the same
``(f, g)`` at the same points as under ``minimize`` with the plain
two-branch sigmoid, so every solver path and every fitted coefficient
is bit-identical to it.

``setulb`` lives in scipy's compiled ``scipy.optimize._lbfgsb``
extension, which ``_load_lbfgsb`` loads straight from its file.
Importing it by name would first execute the whole ``scipy.optimize``
package, with ``scipy.linalg``, ``scipy.sparse`` and ``scipy.special``
behind it: about half a second and 40 MB of every process that imports
``repro``, for modules no study calls. The loaded extension is the same
file, linked to the same OpenBLAS, so the solver computes the same bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy

from repro.ml.base import BaseClassifier, clone, split_single_parameter_grid


def _load_lbfgsb() -> Any:
    """scipy's compiled L-BFGS-B extension, without ``scipy.optimize``.

    The module is registered in ``sys.modules`` under its own name, as
    an import would, so a later ``import scipy.optimize`` in the same
    process reuses this very module object.
    """
    name = "scipy.optimize._lbfgsb"
    spec = importlib.machinery.PathFinder.find_spec(
        name, [str(Path(scipy.__file__).parent / "optimize")]
    )
    if spec is None:
        raise ImportError(
            f"{name} not found next to scipy {scipy.__version__}; "
            "repro requires scipy>=1.15"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_lbfgsb = _load_lbfgsb()

# The settings ``minimize(method="L-BFGS-B")`` passes to ``setulb`` by
# default: history size, ``factr = ftol / eps`` and line-search budget,
# plus its evaluation cap.
_MAXCOR = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_MAXLS = 20
_MAXFUN = 15000

# ``task`` codes of scipy's C port of L-BFGS-B: requests from ``setulb``
# and the stops the caller may set.
_TASK_FG = 3
_TASK_NEW_X = 1
_TASK_STOP = 5
_STOP_MAXFUN = 502
_STOP_MAXITER = 504


def _lbfgsb_minimize(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta0: np.ndarray,
    max_iter: int,
    gtol: float,
) -> np.ndarray:
    """Minimise ``objective(theta) -> (loss, grad)`` from ``theta0``.

    The loop of scipy's ``_minimize_lbfgsb`` without bounds: evaluate
    where ``setulb`` asks, count iterations at each new point and stop
    after ``max_iter`` of them or once more than ``_MAXFUN``
    evaluations were made. ``objective`` must not keep ``theta``:
    ``setulb`` overwrites it in place.
    """
    n = theta0.size
    x = np.array(theta0, dtype=np.float64)
    lower = np.zeros(n)
    upper = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * _MAXCOR * n + 5 * n + 11 * _MAXCOR**2 + 8 * _MAXCOR)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    n_iterations = n_evaluations = 0
    while True:
        _lbfgsb.setulb(
            _MAXCOR, x, lower, upper, nbd, f, g, _FACTR, gtol, wa, iwa,
            task, lsave, isave, dsave, _MAXLS, ln_task,
        )
        if task[0] == _TASK_FG:
            f, g = objective(x)
            n_evaluations += 1
        elif task[0] == _TASK_NEW_X:
            n_iterations += 1
            if n_iterations >= max_iter:
                task[:] = (_TASK_STOP, _STOP_MAXITER)
            elif n_evaluations > _MAXFUN:
                task[:] = (_TASK_STOP, _STOP_MAXFUN)
        else:
            return x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    One ``e = exp(-|z|)`` over the whole array, then one division of
    ``1`` where ``z >= 0`` and of ``e`` elsewhere by ``1 + e``: each
    element sees the same ``exp`` input and the same arithmetic as a
    masked two-branch evaluation, so the values are bit-identical to it.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(z >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p


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
        """Minimise the penalised NLL from ``theta0`` via L-BFGS-B."""
        n_features = X.shape[1]
        penalty = 1.0 / (2.0 * self.C)
        two_penalty = 2.0 * penalty

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            w = theta[:n_features]
            z = X @ w
            z += theta[n_features]
            # log-likelihood via the numerically stable log1p formulation;
            # logaddexp's exp may differ from _sigmoid's by an ulp, so the
            # loss keeps its own
            nll = np.logaddexp(0.0, z)
            nll -= y_float * z
            residual = _sigmoid(z)
            residual -= y_float
            grad = np.empty(n_features + 1)
            grad[:n_features] = X.T @ residual
            grad[:n_features] += two_penalty * w
            grad[n_features] = np.add.reduce(residual)
            return float(np.add.reduce(nll) + penalty * (w @ w)), grad

        return _lbfgsb_minimize(objective, theta0, self.max_iter, self.tol)

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
        iterations. Unlike the kNN fast path this is not
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
            theta = model._solve(X, y_float, theta)
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
