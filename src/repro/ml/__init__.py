"""Machine-learning substrate.

A from-scratch, numpy-based replacement for the scikit-learn / xgboost
functionality the study depends on: three classifier families
(logistic regression, k-nearest-neighbours, gradient-boosted trees),
an isolation forest for multivariate outlier detection, feature
preprocessing, cross-validation based model selection, and
classification metrics.
"""

from repro.ml.base import BaseClassifier, clone, split_single_parameter_grid
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.featurize import TabularFeaturizer
from repro.ml.logistic import LogisticRegressionClassifier
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.boosting import GradientBoostedTreesClassifier
from repro.ml.isolation import IsolationForest
from repro.ml.model_selection import (
    GridSearchCV,
    StratifiedKFold,
    cross_val_predict_proba,
    grid_fold_predictions,
    iter_grid_candidates,
)
from repro.ml import incremental, metrics

__all__ = [
    "BaseClassifier",
    "clone",
    "OneHotEncoder",
    "StandardScaler",
    "TabularFeaturizer",
    "LogisticRegressionClassifier",
    "KNearestNeighborsClassifier",
    "DecisionTreeRegressor",
    "GradientBoostedTreesClassifier",
    "IsolationForest",
    "GridSearchCV",
    "StratifiedKFold",
    "cross_val_predict_proba",
    "grid_fold_predictions",
    "iter_grid_candidates",
    "split_single_parameter_grid",
    "metrics",
]
