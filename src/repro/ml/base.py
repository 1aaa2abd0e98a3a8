"""Estimator protocol and cloning.

Estimators follow the scikit-learn convention: all hyperparameters are
keyword arguments of ``__init__`` stored under the same attribute name,
``fit`` returns ``self``, and fitted state lives in attributes with a
trailing underscore. :func:`clone` builds an unfitted copy from the
constructor parameters.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, TypeVar

import numpy as np

EstimatorT = TypeVar("EstimatorT", bound="BaseEstimator")


@functools.cache
def _init_param_names(cls: type) -> tuple[str, ...]:
    """Keyword parameter names of ``cls.__init__``, once per class."""
    signature = inspect.signature(cls.__init__)
    return tuple(
        name
        for name, parameter in signature.parameters.items()
        if name != "self"
        and parameter.kind
        not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    )


class BaseEstimator:
    """Shared parameter plumbing for all estimators."""

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        return _init_param_names(cls)

    def get_params(self) -> dict[str, Any]:
        """Return the constructor hyperparameters of this estimator."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self: EstimatorT, **params: Any) -> EstimatorT:
        """Set hyperparameters in place; unknown names raise."""
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"{type(self).__name__} has no hyperparameter {name!r}; "
                    f"valid: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: EstimatorT) -> EstimatorT:
    """Return an unfitted copy of ``estimator`` with identical hyperparameters."""
    return type(estimator)(**estimator.get_params())


def split_single_parameter_grid(
    candidates: "list[dict[str, Any]]",
) -> tuple[dict[str, Any], str, list[Any]] | None:
    """Decompose a candidate list that varies in exactly one parameter.

    Returns ``(fixed_params, varying_name, values)`` where ``values``
    preserves candidate order, or ``None`` when the candidates do not
    share a key set or vary in zero or more than one key. This is the
    shape the single-parameter ``score_grid`` fast paths accept.
    """
    if len(candidates) < 2:
        return None
    keys = set(candidates[0])
    if any(set(candidate) != keys for candidate in candidates):
        return None
    first = candidates[0]
    varying = [
        key
        for key in first
        if any(candidate[key] != first[key] for candidate in candidates[1:])
    ]
    if len(varying) != 1:
        return None
    name = varying[0]
    fixed = {key: value for key, value in first.items() if key != name}
    return fixed, name, [candidate[name] for candidate in candidates]


class BaseClassifier(BaseEstimator):
    """Base class for binary classifiers.

    Subclasses implement ``fit(X, y)`` and ``predict_proba(X)``;
    ``predict`` thresholds the positive-class probability at 0.5.
    Labels are expected to be 0/1 integers.
    """

    classes_: np.ndarray

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaseClassifier":
        raise NotImplementedError

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return an (n, 2) array of class probabilities [P(y=0), P(y=1)]."""
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return hard 0/1 predictions."""
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)

    def score_grid(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_test: np.ndarray,
        y_test: np.ndarray,
        candidates: "list[dict[str, Any]]",
    ) -> np.ndarray | None:
        """Optional shared-computation fast path for grid search.

        Given a list of hyperparameter candidates, return an
        ``(n_candidates, n_test)`` int64 array whose row ``i`` is
        bitwise identical to::

            clone(self).set_params(**candidates[i]).fit(
                X_train, y_train).predict(X_test)

        but computed from one shared pass over the fold instead of one
        cold fit per candidate. Implementations must return ``None``
        for any grid they cannot evaluate with that exact-equivalence
        guarantee (the caller then falls back to the naive
        clone-per-candidate loop). ``y_test`` is provided for
        estimators that score internally; the bundled implementations
        ignore it. The base implementation supports nothing.
        """
        return None

    def _check_fit_inputs(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(
                f"y must have shape ({X.shape[0]},), got {y.shape}"
            )
        if np.isnan(X).any():
            raise ValueError(
                "X contains NaN; impute or drop missing values before fitting"
            )
        y = y.astype(np.int64)
        labels = np.unique(y)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError(f"labels must be 0/1, got {labels}")
        self.classes_ = np.array([0, 1], dtype=np.int64)
        return X, y

    def _check_predict_inputs(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-d, got shape {X.shape}")
        if np.isnan(X).any():
            raise ValueError(
                "X contains NaN; impute or drop missing values before predicting"
            )
        return X
