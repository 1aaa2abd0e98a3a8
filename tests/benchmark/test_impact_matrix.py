"""Unit tests for ImpactMatrix and ConfigurationImpact plumbing."""

import numpy as np
import pytest

from repro.benchmark.impact import ConfigurationImpact, ImpactMatrix
from repro.fairness.confusion import group_key_fragments
from repro.stats.impact import Impact


def make_impact(fairness=Impact.BETTER, accuracy=Impact.WORSE, **overrides):
    defaults = dict(
        dataset="german",
        group_key="sex",
        metric_name="PP",
        model="log_reg",
        error_type="missing_values",
        detection="missing_values",
        repair="impute_mean_dummy",
        fairness_impact=fairness,
        accuracy_impact=accuracy,
        n_runs=6,
        mean_dirty_fairness=0.1,
        mean_clean_fairness=0.05,
        mean_dirty_accuracy=0.7,
        mean_clean_accuracy=0.72,
        fairness_p_value=0.001,
        accuracy_p_value=0.001,
    )
    defaults.update(overrides)
    return ConfigurationImpact(**defaults)


def test_matrix_counts_and_total():
    matrix = ImpactMatrix()
    matrix.add(Impact.BETTER, Impact.WORSE)
    matrix.add(Impact.BETTER, Impact.WORSE)
    matrix.add(Impact.WORSE, Impact.BETTER)
    assert matrix.count(Impact.BETTER, Impact.WORSE) == 2
    assert matrix.total == 3


def test_matrix_marginals():
    matrix = ImpactMatrix()
    matrix.add(Impact.BETTER, Impact.WORSE)
    matrix.add(Impact.BETTER, Impact.BETTER)
    matrix.add(Impact.INSIGNIFICANT, Impact.BETTER)
    assert matrix.fairness_marginal(Impact.BETTER) == 2
    assert matrix.accuracy_marginal(Impact.BETTER) == 2
    assert matrix.fairness_marginal(Impact.WORSE) == 0


def test_matrix_fraction():
    matrix = ImpactMatrix()
    matrix.add(Impact.WORSE, Impact.WORSE)
    matrix.add(Impact.BETTER, Impact.BETTER)
    assert matrix.fraction(Impact.WORSE, Impact.WORSE) == pytest.approx(0.5)


def test_matrix_fraction_empty_is_nan():
    assert np.isnan(ImpactMatrix().fraction(Impact.WORSE, Impact.WORSE))


def test_group_fragments_single():
    assert group_key_fragments("sex") == ("sex_priv", "sex_dis")


def test_group_fragments_intersectional():
    assert group_key_fragments("sex_x_age") == (
        "sex_priv__age_priv",
        "sex_dis__age_dis",
    )


def test_configuration_impact_intersectional_flag():
    assert not make_impact().intersectional
    assert make_impact(group_key="sex_x_age").intersectional
