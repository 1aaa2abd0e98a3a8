"""Tests for group-wise confusion matrices and fairness metrics."""

import numpy as np
import pytest

from repro.fairness import (
    Comparison,
    GroupPredicate,
    GroupSpec,
    IntersectionalSpec,
    accuracy_parity,
    demographic_parity,
    equal_opportunity,
    equalized_odds,
    false_positive_rate_parity,
    group_confusion_matrices,
    group_confusions_from_masks,
    group_masks,
    predictive_parity,
    result_store_keys,
)
from repro.fairness.confusion import confusion_codes
from repro.ml.metrics import ConfusionMatrix
from repro.tabular import Table

SEX = GroupSpec("sex", GroupPredicate("sex", Comparison.EQ, "male"))
AGE = GroupSpec("age", GroupPredicate("age", Comparison.GT, 25))


def make_scored_table():
    table = Table.from_columns(
        {
            "sex": ["male", "male", "male", "female", "female", "female"],
            "age": [30.0, 40.0, 20.0, 30.0, 20.0, 22.0],
        }
    )
    y_true = np.array([1, 0, 1, 1, 0, 1])
    y_pred = np.array([1, 1, 0, 0, 0, 1])
    return table, y_true, y_pred


def test_group_confusion_counts():
    table, y_true, y_pred = make_scored_table()
    group = group_confusion_matrices(table, y_true, y_pred, SEX)
    assert group.privileged.as_dict() == {"tn": 0, "fp": 1, "fn": 1, "tp": 1}
    assert group.disadvantaged.as_dict() == {"tn": 1, "fp": 0, "fn": 1, "tp": 1}


def test_group_confusion_totals_cover_partition():
    table, y_true, y_pred = make_scored_table()
    group = group_confusion_matrices(table, y_true, y_pred, SEX)
    assert group.privileged.total + group.disadvantaged.total == len(y_true)


def test_intersectional_confusion_excludes_mixed():
    table, y_true, y_pred = make_scored_table()
    spec = IntersectionalSpec(SEX, AGE)
    group = group_confusion_matrices(table, y_true, y_pred, spec)
    # privileged: male & >25 -> rows 0,1 ; disadvantaged: female & <=25 -> rows 4,5
    assert group.privileged.total == 2
    assert group.disadvantaged.total == 2


def test_length_mismatch_rejected():
    table, y_true, y_pred = make_scored_table()
    with pytest.raises(ValueError):
        group_confusion_matrices(table, y_true[:-1], y_pred[:-1], SEX)


def test_result_store_keys_single_attribute():
    table, y_true, y_pred = make_scored_table()
    group = group_confusion_matrices(table, y_true, y_pred, SEX)
    keys = result_store_keys("impute_mean_dummy", group)
    assert keys["impute_mean_dummy__sex_priv__tp"] == 1
    assert keys["impute_mean_dummy__sex_dis__tn"] == 1
    assert len(keys) == 8


def test_result_store_keys_intersectional():
    table, y_true, y_pred = make_scored_table()
    group = group_confusion_matrices(
        table, y_true, y_pred, IntersectionalSpec(SEX, AGE)
    )
    keys = result_store_keys("impute_mean_dummy", group)
    assert "impute_mean_dummy__sex_priv__age_priv__tp" in keys
    assert "impute_mean_dummy__sex_dis__age_dis__fn" in keys
    assert len(keys) == 8


PRIV = ConfusionMatrix(tn=50, fp=10, fn=5, tp=35)   # precision .777, recall .875
DIS = ConfusionMatrix(tn=55, fp=5, fn=20, tp=20)    # precision .8, recall .5


def test_predictive_parity_signed_disparity():
    assert predictive_parity(PRIV, DIS) == pytest.approx(35 / 45 - 20 / 25)


def test_equal_opportunity_signed_disparity():
    assert equal_opportunity(PRIV, DIS) == pytest.approx(35 / 40 - 20 / 40)


def test_metrics_zero_on_identical_groups():
    for metric in (
        predictive_parity,
        equal_opportunity,
        demographic_parity,
        false_positive_rate_parity,
        equalized_odds,
        accuracy_parity,
    ):
        assert metric(PRIV, PRIV) == pytest.approx(0.0)


def test_metrics_antisymmetric():
    for metric in (
        predictive_parity,
        equal_opportunity,
        demographic_parity,
        false_positive_rate_parity,
        accuracy_parity,
    ):
        assert metric(PRIV, DIS) == pytest.approx(-metric(DIS, PRIV))


def test_demographic_parity():
    assert demographic_parity(PRIV, DIS) == pytest.approx(45 / 100 - 25 / 100)


def test_false_positive_rate_parity():
    assert false_positive_rate_parity(PRIV, DIS) == pytest.approx(
        10 / 60 - 5 / 60
    )


def test_equalized_odds_picks_larger_gap():
    assert equalized_odds(PRIV, DIS) == pytest.approx(
        equal_opportunity(PRIV, DIS)
    )


def test_accuracy_parity():
    assert accuracy_parity(PRIV, DIS) == pytest.approx(85 / 100 - 75 / 100)


def test_predictive_parity_nan_when_degenerate():
    empty_positive = ConfusionMatrix(tn=10, fp=0, fn=0, tp=0)
    assert np.isnan(predictive_parity(empty_positive, DIS))


def test_group_confusion_metric_value_helper():
    table, y_true, y_pred = make_scored_table()
    group = group_confusion_matrices(table, y_true, y_pred, SEX)
    assert group.metric_value(equal_opportunity) == pytest.approx(
        group.privileged.recall - group.disadvantaged.recall
    )


# -- vectorised counting ------------------------------------------------


def test_confusion_codes_layout():
    codes = confusion_codes(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    assert codes.tolist() == [0, 1, 2, 3]  # tn, fp, fn, tp


def test_confusion_codes_reject_non_binary():
    with pytest.raises(ValueError, match="0/1"):
        confusion_codes(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError, match="shape"):
        confusion_codes(np.array([0, 1]), np.array([0]))
    with pytest.raises(ValueError) as raised:
        confusion_codes(np.array([0, 1, 1, 0]), np.array([0, -1, 2, 1]))
    assert str(raised.value) == "y_pred must be 0/1, found [-1  2]"


def test_masked_confusions_match_per_group_counting():
    """The bincount accumulation must agree with brute-force masked
    confusion matrices on random inputs."""
    from repro.ml.metrics import confusion_matrix

    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(1, 200))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        priv = rng.random(n) < 0.5
        dis = ~priv & (rng.random(n) < 0.8)  # not a partition, like specs
        (group,) = group_confusions_from_masks(
            y_true, y_pred, [("sex", priv, dis)]
        )
        assert group.privileged == confusion_matrix(y_true[priv], y_pred[priv])
        assert group.disadvantaged == confusion_matrix(y_true[dis], y_pred[dis])


def test_group_masks_reused_across_predictions():
    table, y_true, y_pred = make_scored_table()
    masks = group_masks(table, [SEX, IntersectionalSpec(SEX, AGE)])
    assert [key for key, __, __ in masks] == ["sex", "sex_x_age"]
    via_masks = group_confusions_from_masks(y_true, y_pred, masks)
    assert via_masks[0] == group_confusion_matrices(table, y_true, y_pred, SEX)
    assert via_masks[1] == group_confusion_matrices(
        table, y_true, y_pred, IntersectionalSpec(SEX, AGE)
    )
    # a second prediction vector reuses the same masks
    flipped = 1 - y_pred
    again = group_confusions_from_masks(y_true, flipped, masks)
    assert again[0] == group_confusion_matrices(table, y_true, flipped, SEX)


def test_empty_group_yields_zero_counts():
    table, y_true, y_pred = make_scored_table()
    nobody = np.zeros(len(y_true), dtype=bool)
    (group,) = group_confusions_from_masks(
        y_true, y_pred, [("ghost", nobody, nobody)]
    )
    assert group.privileged.total == 0
    assert group.disadvantaged.total == 0
