"""Model registry for the study.

The paper evaluates three model types, each tuned by cross-validation:
logistic regression (tuned regularisation), k-nearest neighbours
(tuned k) and gradient-boosted trees (tuned maximum depth; xgboost in
the paper, our from-scratch booster here — see DESIGN.md).
"""

from __future__ import annotations

from repro.ml import (
    GradientBoostedTreesClassifier,
    GridSearchCV,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
)

#: The study's model names.
MODEL_NAMES: tuple[str, ...] = ("log_reg", "knn", "xgboost")


def model_search(
    name: str, n_cv_folds: int = 3, tuning_seed: int = 0, fast_path: bool = True
) -> GridSearchCV:
    """Build the tuned cross-validated search for a model name.

    Args:
        name: One of ``log_reg``, ``knn``, ``xgboost``.
        n_cv_folds: Folds of the inner grid-search cross-validation.
        tuning_seed: Seed for fold assignment (the paper evaluates
            several tuning seeds per split).
        fast_path: Allow the search to use the estimator's
            ``score_grid`` shared-computation kernel (log_reg and knn
            have one; the booster always runs the naive loop).
            Selection is byte-identical either way; ``False`` forces
            the naive clone-per-candidate loop (the reference for
            identity tests and the naive-vs-fast benches).
    """
    if name == "log_reg":
        return GridSearchCV(
            LogisticRegressionClassifier(),
            {"C": [0.01, 0.1, 1.0, 10.0]},
            n_splits=n_cv_folds,
            random_state=tuning_seed,
            use_fast_path=fast_path,
        )
    if name == "knn":
        return GridSearchCV(
            KNearestNeighborsClassifier(),
            {"n_neighbors": [5, 15, 31]},
            n_splits=n_cv_folds,
            random_state=tuning_seed,
            use_fast_path=fast_path,
        )
    if name == "xgboost":
        return GridSearchCV(
            GradientBoostedTreesClassifier(n_estimators=20, learning_rate=0.2),
            {"max_depth": [2, 4]},
            n_splits=n_cv_folds,
            random_state=tuning_seed,
            use_fast_path=fast_path,
        )
    raise ValueError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
