"""Tests for paired-t-test impact classification."""

import numpy as np
import pytest

from repro.stats import Impact, classify_impact, paired_t_test


def test_paired_t_test_identical_vectors_p1():
    x = np.array([0.8, 0.7, 0.9])
    assert paired_t_test(x, x) == 1.0


def test_paired_t_test_clear_shift_small_p():
    rng = np.random.default_rng(0)
    baseline = rng.normal(0.7, 0.01, size=50)
    treated = baseline + 0.1
    assert paired_t_test(baseline, treated) < 1e-10


def test_paired_t_test_drops_nan_pairs():
    baseline = np.array([0.5, np.nan, 0.5, 0.5])
    treated = np.array([0.9, 0.9, 0.9, np.nan])
    assert paired_t_test(baseline, treated) < 1.0


def test_paired_t_test_too_few_pairs_p1():
    assert paired_t_test(np.array([0.5]), np.array([0.9])) == 1.0


def test_paired_t_test_shape_mismatch():
    with pytest.raises(ValueError):
        paired_t_test(np.zeros(3), np.zeros(4))


def _ttest_rel_p(baseline, treated):
    """``scipy.stats.ttest_rel``'s p-value under paired_t_test's rules."""
    from scipy import stats as scipy_stats

    keep = ~(np.isnan(baseline) | np.isnan(treated))
    baseline, treated = baseline[keep], treated[keep]
    if baseline.size < 2 or np.allclose(treated - baseline, 0.0):
        return 1.0
    p_value = float(scipy_stats.ttest_rel(treated, baseline).pvalue)
    return 1.0 if np.isnan(p_value) else p_value


def _pairs():
    rng = np.random.default_rng(2024)
    yield np.array([0.7, 0.8]), np.array([0.75, 0.9])  # n = 2
    yield np.array([0.5, np.nan, 0.5, 0.6]), np.array([0.9, 0.9, 0.8, np.nan])
    yield np.array([0.0, 0.0, 0.0]), np.array([1e-7, 1e-7 + 1e-15, 1e-7])
    yield np.array([0.3, 0.3, 0.3, 0.3]), np.array([0.4, 0.4, 0.4, 0.4])
    for __ in range(2000):
        n = int(rng.integers(2, 20))
        baseline = rng.normal(0.7, 0.05, size=n)
        treated = baseline + rng.normal(
            rng.choice([0.0, 0.01]), rng.choice([1e-9, 1e-3, 0.05]), size=n
        )
        if rng.random() < 0.2:
            treated[rng.integers(n)] = np.nan
        yield baseline, treated


# scipy warns on the near-constant differences the cases include on purpose
@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
def test_paired_t_test_is_bit_equal_to_ttest_rel():
    for baseline, treated in _pairs():
        expected = _ttest_rel_p(baseline, treated)
        assert paired_t_test(baseline, treated) == expected, (baseline, treated)


def _vectors(shift, n=40, noise=0.01, seed=1):
    rng = np.random.default_rng(seed)
    baseline = rng.normal(0.7, noise, size=n)
    return baseline, baseline + shift


def test_classify_better_for_accuracy_gain():
    baseline, treated = _vectors(+0.05)
    verdict = classify_impact(baseline, treated, higher_is_better=True)
    assert verdict.impact is Impact.BETTER


def test_classify_worse_for_accuracy_loss():
    baseline, treated = _vectors(-0.05)
    verdict = classify_impact(baseline, treated, higher_is_better=True)
    assert verdict.impact is Impact.WORSE


def test_classify_insignificant_for_noise():
    rng = np.random.default_rng(2)
    baseline = rng.normal(0.7, 0.05, size=20)
    treated = baseline + rng.normal(0.0, 0.001, size=20)
    assert (
        classify_impact(baseline, treated, higher_is_better=True).impact
        is Impact.INSIGNIFICANT
    )


def test_magnitude_mode_rewards_shrinking_disparity():
    # disparity moves from -0.2 to -0.05: |d| shrinks -> fairness better
    baseline, treated = np.full(30, -0.2), np.full(30, -0.05)
    treated = treated + np.random.default_rng(3).normal(0, 0.001, 30)
    assert (
        classify_impact(
            baseline, treated, higher_is_better=False, use_magnitude=True
        ).impact
        is Impact.BETTER
    )


def test_magnitude_mode_penalises_growing_disparity():
    baseline = np.full(30, 0.05) + np.random.default_rng(4).normal(0, 0.001, 30)
    treated = np.full(30, -0.3) + np.random.default_rng(5).normal(0, 0.001, 30)
    assert (
        classify_impact(
            baseline, treated, higher_is_better=False, use_magnitude=True
        ).impact
        is Impact.WORSE
    )


def test_bonferroni_raises_bar():
    rng = np.random.default_rng(6)
    baseline = rng.normal(0.7, 0.01, size=8)
    treated = baseline + 0.01 + rng.normal(0.0, 0.008, size=8)
    unadjusted = classify_impact(baseline, treated, higher_is_better=True)
    adjusted = classify_impact(
        baseline, treated, higher_is_better=True, n_hypotheses=10_000_000
    )
    assert unadjusted.impact is Impact.BETTER
    assert adjusted.impact is Impact.INSIGNIFICANT
    # the correction moves the bar, not the test: one p-value
    assert adjusted.p_value == unadjusted.p_value


def test_invalid_n_hypotheses():
    with pytest.raises(ValueError):
        classify_impact(np.zeros(3), np.zeros(3), True, n_hypotheses=0)


def test_impact_enum_values():
    assert {impact.value for impact in Impact} == {
        "worse",
        "insignificant",
        "better",
    }
