"""Tests for the G² independence test."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats import g_test, g_test_counts


def test_strong_dependence_is_significant():
    result = g_test(np.array([[90, 10], [10, 90]]))
    assert result.significant
    assert result.p_value < 1e-10


def test_independence_not_significant():
    result = g_test(np.array([[50, 50], [50, 50]]))
    assert not result.significant
    assert result.statistic == pytest.approx(0.0)


def test_matches_scipy_log_likelihood_chi2():
    table = np.array([[30, 70], [45, 55]], dtype=float)
    ours = g_test(table)
    theirs = scipy_stats.chi2_contingency(
        table, correction=False, lambda_="log-likelihood"
    )
    assert ours.statistic == pytest.approx(theirs[0])
    assert ours.p_value == pytest.approx(theirs[1])


def test_p_value_is_bit_equal_to_chi2_sf():
    rng = np.random.default_rng(7)
    for __ in range(500):
        result = g_test(rng.integers(1, 60, size=(2, int(rng.integers(2, 5)))))
        assert result.p_value == float(
            scipy_stats.chi2.sf(result.statistic, result.dof)
        )


def test_dof_for_2x2():
    assert g_test(np.array([[5, 5], [5, 5]])).dof == 1


def test_larger_tables_supported():
    table = np.array([[10, 20, 30], [30, 20, 10]])
    result = g_test(table)
    assert result.dof == 2
    assert result.significant


def test_zero_row_dropped():
    result = g_test(np.array([[0, 0], [10, 20]]))
    assert not result.significant
    assert result.dof == 0


def test_zero_column_dropped():
    result = g_test(np.array([[0, 10], [0, 20]]))
    assert not result.significant


def test_zero_cell_contributes_nothing():
    # a zero cell must not produce NaN
    result = g_test(np.array([[0, 100], [50, 50]]))
    assert np.isfinite(result.statistic)
    assert result.significant


def test_negative_counts_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        g_test(np.array([[-1, 2], [3, 4]]))


def test_non_2d_rejected():
    with pytest.raises(ValueError, match="2-d"):
        g_test(np.array([1, 2, 3]))


def test_alpha_threshold_respected():
    table = np.array([[60, 40], [45, 55]])
    loose = g_test(table, alpha=0.05)
    strict = g_test(table, alpha=1e-6)
    assert loose.significant
    assert not strict.significant


def test_g_test_counts_wrapper():
    result = g_test_counts(90, 100, 10, 100)
    direct = g_test(np.array([[90, 10], [10, 90]]))
    assert result.statistic == pytest.approx(direct.statistic)


def test_g_test_counts_validates_totals():
    with pytest.raises(ValueError):
        g_test_counts(11, 10, 0, 10)
    with pytest.raises(ValueError):
        g_test_counts(0, 10, 11, 10)


def test_small_disparity_large_sample_significant():
    # 51% vs 49% flagged is significant with enough data
    result = g_test_counts(5100, 10000, 4900, 10000)
    assert result.significant


def test_small_disparity_small_sample_not_significant():
    result = g_test_counts(51, 100, 49, 100)
    assert not result.significant
