"""Cross-validation and hyperparameter search.

Provides a seeded stratified K-fold splitter, grid search over a
single metric (accuracy), and out-of-fold probability prediction (the
building block of confident learning).

Grid search dispatches to an estimator's :meth:`~repro.ml.base.\
BaseClassifier.score_grid` fast path when one is available: the whole
candidate grid is then evaluated from one shared computation per fold
(one distance matrix for every ``k`` of a kNN grid, one boosting run
for every ``n_estimators`` budget, one warm-started solver path for a
``C`` grid) instead of one cold fit per candidate. The fast path is
required to reproduce the naive clone-per-candidate loop bit for bit
— same predictions, same scores, same tie-breaking — so selected
hyperparameters and downstream study records are identical either way.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Sequence

import numpy as np

from repro import obs
from repro.ml.base import BaseClassifier, clone
from repro.ml.metrics import accuracy_score


class StratifiedKFold:
    """Shuffled K-fold preserving the 0/1 label ratio per fold."""

    def __init__(self, n_splits: int = 5, random_state: int = 0) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.random_state = random_state

    def split(self, y: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, test_indices)`` pairs stratified on y."""
        y = np.asarray(y).astype(np.int64)
        rng = np.random.default_rng(self.random_state)
        fold_of = np.empty(len(y), dtype=np.int64)
        for label in np.unique(y):
            members = np.nonzero(y == label)[0]
            if len(members) < self.n_splits:
                raise ValueError(
                    f"class {label} has only {len(members)} examples for "
                    f"{self.n_splits} folds"
                )
            members = rng.permutation(members)
            fold_of[members] = np.arange(len(members)) % self.n_splits
        for i in range(self.n_splits):
            test = np.nonzero(fold_of == i)[0]
            train = np.nonzero(fold_of != i)[0]
            yield train, test


def iter_grid_candidates(
    param_grid: dict[str, Sequence[Any]],
) -> Iterator[dict[str, Any]]:
    """Enumerate grid candidates in odometer order (first name fastest).

    :class:`GridSearchCV`'s candidate enumeration; the fast path's
    first-candidate-wins tie-breaking guarantee is defined over this
    order.
    """
    names = list(param_grid)
    counts = [len(param_grid[name]) for name in names]
    total = int(np.prod(counts))
    for flat in range(total):
        candidate = {}
        remainder = flat
        for name, count in zip(names, counts):
            candidate[name] = param_grid[name][remainder % count]
            remainder //= count
        yield candidate


def grid_fold_predictions(
    estimator: BaseClassifier,
    X: np.ndarray,
    y: np.ndarray,
    folds: "list[tuple[np.ndarray, np.ndarray]]",
    candidates: "list[dict[str, Any]]",
) -> tuple[list[np.ndarray], list[float]] | None:
    """Evaluate every candidate on every fold via the fast-path protocol.

    Returns ``(predictions, seconds)`` where ``predictions[f]`` is the
    ``(n_candidates, n_test_f)`` array produced by the estimator's
    ``score_grid`` for fold ``f`` and ``seconds[f]`` the wall-clock
    spent on it, or ``None`` when the estimator declines the grid (the
    caller then runs the naive clone-per-candidate loop).
    """
    if len(candidates) < 2:
        return None
    fold_predictions: list[np.ndarray] = []
    fold_seconds: list[float] = []
    for train_idx, test_idx in folds:
        model = clone(estimator)
        started = time.perf_counter()
        predictions = model.score_grid(
            X[train_idx], y[train_idx], X[test_idx], y[test_idx], candidates
        )
        if predictions is None:
            return None
        predictions = np.asarray(predictions)
        if predictions.shape != (len(candidates), len(test_idx)):
            raise ValueError(
                f"{type(model).__name__}.score_grid returned shape "
                f"{predictions.shape}, expected "
                f"{(len(candidates), len(test_idx))}"
            )
        fold_predictions.append(predictions)
        fold_seconds.append(time.perf_counter() - started)
    return fold_predictions, fold_seconds


class GridSearchCV:
    """Exhaustive grid search maximising cross-validated accuracy.

    When the estimator implements the ``score_grid`` fast path for the
    grid, all candidates of a fold are evaluated from one shared
    computation; otherwise each candidate is cloned and fitted cold.
    Both routes produce byte-identical ``best_params_``,
    ``cv_results_`` scores and tie-breaking (strict ``>`` — the first
    candidate in odometer order wins on equal mean scores).

    Each ``cv_results_`` entry also carries a lightweight timing hook:
    ``fit_seconds`` (naive: summed fit time across folds; fast path:
    the shared grid evaluation apportioned equally over candidates)
    and ``score_seconds`` (prediction scoring time), so benches can
    attribute tuning cost without a profiler. Timings never enter
    study records.

    Args:
        estimator: Prototype classifier (cloned per fit).
        param_grid: Mapping from hyperparameter name to candidate values.
        n_splits: Cross-validation folds.
        random_state: Seed for fold assignment (the paper evaluates
            several tuning seeds per split).
        use_fast_path: Dispatch to ``score_grid`` when available
            (``False`` forces the naive loop, e.g. for benchmarking).
    """

    def __init__(
        self,
        estimator: BaseClassifier,
        param_grid: dict[str, Sequence[Any]],
        n_splits: int = 5,
        random_state: int = 0,
        use_fast_path: bool = True,
    ) -> None:
        if not param_grid:
            raise ValueError("param_grid must not be empty")
        self.estimator = estimator
        self.param_grid = param_grid
        self.n_splits = n_splits
        self.random_state = random_state
        self.use_fast_path = use_fast_path
        self.best_params_: dict[str, Any] | None = None
        self.best_score_: float = float("nan")
        self.best_estimator_: BaseClassifier | None = None
        self.cv_results_: list[dict[str, Any]] = []
        self.used_fast_path_: bool = False

    def _candidates(self) -> Iterator[dict[str, Any]]:
        return iter_grid_candidates(self.param_grid)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GridSearchCV":
        with obs.span(
            "tune", model=type(self.estimator).__name__
        ) as tune_span:
            self._fit(X, y, tune_span)
        return self

    def _fit(self, X: np.ndarray, y: np.ndarray, tune_span) -> None:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).astype(np.int64)
        splitter = StratifiedKFold(self.n_splits, self.random_state)
        folds = list(splitter.split(y))
        candidates = list(self._candidates())
        self.cv_results_ = []
        fast = (
            grid_fold_predictions(self.estimator, X, y, folds, candidates)
            if self.use_fast_path
            else None
        )
        self.used_fast_path_ = fast is not None
        if fast is not None:
            fold_predictions, fold_seconds = fast
            shared_fit_seconds = float(sum(fold_seconds)) / len(candidates)
            for index, candidate in enumerate(candidates):
                scores = []
                started = time.perf_counter()
                for fold, (__, test_idx) in enumerate(folds):
                    scores.append(
                        accuracy_score(y[test_idx], fold_predictions[fold][index])
                    )
                score_seconds = time.perf_counter() - started
                self._record_result(
                    candidate, scores, shared_fit_seconds, score_seconds
                )
        else:
            for candidate in candidates:
                scores = []
                fit_seconds = 0.0
                score_seconds = 0.0
                for train_idx, test_idx in folds:
                    model = clone(self.estimator).set_params(**candidate)
                    started = time.perf_counter()
                    model.fit(X[train_idx], y[train_idx])
                    fit_seconds += time.perf_counter() - started
                    started = time.perf_counter()
                    scores.append(
                        accuracy_score(y[test_idx], model.predict(X[test_idx]))
                    )
                    score_seconds += time.perf_counter() - started
                self._record_result(candidate, scores, fit_seconds, score_seconds)
        best_score = -np.inf
        best_params: dict[str, Any] | None = None
        for entry in self.cv_results_:
            if entry["score"] > best_score:
                best_score = entry["score"]
                best_params = dict(entry["params"])
        assert best_params is not None
        if obs.is_enabled():
            # export the per-candidate timings that cv_results_ accumulates
            # (previously CLI-invisible) into the trace sink
            tune_span.set(
                fast_path=self.used_fast_path_, n_candidates=len(candidates)
            )
            for entry in self.cv_results_:
                tune_span.add("fit_seconds", entry["fit_seconds"])
                tune_span.add("score_seconds", entry["score_seconds"])
        self.refit(X, y, best_params, best_score)

    def refit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        best_params: dict[str, Any],
        best_score: float,
    ) -> "GridSearchCV":
        """Fit the best candidate on all of ``X``: the last step of :meth:`fit`.

        Given the ``best_params_`` and ``best_score_`` an earlier search
        of the same ``(X, y)`` selected, this leaves the search as
        :meth:`fit` would, apart from ``cv_results_``, without
        re-running the cross-validation.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).astype(np.int64)
        self.best_params_ = dict(best_params)
        self.best_score_ = best_score
        self.best_estimator_ = clone(self.estimator).set_params(**best_params)
        self.best_estimator_.fit(X, y)
        return self

    def _record_result(
        self,
        candidate: dict[str, Any],
        scores: "list[float]",
        fit_seconds: float,
        score_seconds: float,
    ) -> None:
        self.cv_results_.append(
            {
                "params": dict(candidate),
                "score": float(np.mean(scores)),
                "fit_seconds": fit_seconds,
                "score_seconds": score_seconds,
            }
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.best_estimator_ is None:
            raise RuntimeError("GridSearchCV is not fitted")
        return self.best_estimator_.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.best_estimator_ is None:
            raise RuntimeError("GridSearchCV is not fitted")
        return self.best_estimator_.predict_proba(X)


def cross_val_predict_proba(
    estimator: BaseClassifier,
    X: np.ndarray,
    y: np.ndarray,
    n_splits: int = 5,
    random_state: int = 0,
) -> np.ndarray:
    """Out-of-fold positive-class probabilities for every example.

    Each example's probability comes from a model that never saw it
    during training — the estimate confident learning requires.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    out = np.empty(len(y), dtype=np.float64)
    splitter = StratifiedKFold(n_splits, random_state)
    for train_idx, test_idx in splitter.split(y):
        model = clone(estimator)
        model.fit(X[train_idx], y[train_idx])
        out[test_idx] = model.predict_proba(X[test_idx])[:, 1]
    return out
