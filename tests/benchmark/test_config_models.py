"""Tests for study configuration and the model registry."""

import numpy as np
import pytest

from repro.benchmark import StudyConfig, model_search
from repro.benchmark.models import MODEL_NAMES
from repro.ml import (
    GradientBoostedTreesClassifier,
    KNearestNeighborsClassifier,
    LogisticRegressionClassifier,
)


def test_default_config_is_laptop_scale():
    assert StudyConfig() == StudyConfig.laptop_scale()


def test_paper_scale_matches_section_v():
    config = StudyConfig.paper_scale()
    assert config.n_sample == 15_000
    assert config.n_repetitions == 20
    assert config.n_tuning_seeds == 5
    assert config.dataset_sizes["folk"] == 378_817


def test_dataset_size_fallback():
    assert StudyConfig().dataset_size("unknown") == 5_000


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        StudyConfig(n_sample=5)
    with pytest.raises(ValueError):
        StudyConfig(test_fraction=1.0)
    with pytest.raises(ValueError):
        StudyConfig(n_repetitions=0)
    with pytest.raises(ValueError):
        StudyConfig(n_tuning_seeds=0)


def test_model_names():
    assert MODEL_NAMES == ("log_reg", "knn", "xgboost")


def test_model_search_estimator_types():
    assert isinstance(
        model_search("log_reg").estimator, LogisticRegressionClassifier
    )
    assert isinstance(model_search("knn").estimator, KNearestNeighborsClassifier)
    assert isinstance(
        model_search("xgboost").estimator, GradientBoostedTreesClassifier
    )


def test_model_search_tuned_parameters_match_paper():
    assert "C" in model_search("log_reg").param_grid
    assert "n_neighbors" in model_search("knn").param_grid
    assert "max_depth" in model_search("xgboost").param_grid


def test_model_search_unknown_name():
    with pytest.raises(ValueError, match="available"):
        model_search("svm")


def test_model_search_fits_and_predicts():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(3, 1, (40, 2))])
    y = np.array([0] * 40 + [1] * 40)
    for name in MODEL_NAMES:
        search = model_search(name, n_cv_folds=3).fit(X, y)
        assert search.predict(X).shape == (80,)
        assert search.best_score_ > 0.8
