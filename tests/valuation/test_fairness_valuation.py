"""Tests for fairness-aware data valuation."""

import numpy as np
import pytest

from repro.valuation import FairnessShapleyValuator


def make_grouped_data(seed=0):
    """Separable data where some training tuples only help one group.

    The privileged group lives around (0, 0)/(3, 0); the disadvantaged
    group around (0, 10)/(3, 10). Training tuples in one region barely
    influence test tuples of the other.
    """
    rng = np.random.default_rng(seed)
    n_per = 30

    def blob(cx, cy, label):
        return rng.normal((cx, cy), 0.7, (n_per, 2)), np.full(n_per, label)

    Xp0, yp0 = blob(0, 0, 0)
    Xp1, yp1 = blob(3, 0, 1)
    Xd0, yd0 = blob(0, 10, 0)
    Xd1, yd1 = blob(3, 10, 1)
    X_train = np.vstack([Xp0, Xp1, Xd0, Xd1])
    y_train = np.concatenate([yp0, yp1, yd0, yd1]).astype(int)
    region = np.array(["priv"] * 2 * n_per + ["dis"] * 2 * n_per)

    Xt_p0, yt_p0 = blob(0, 0, 0)
    Xt_p1, yt_p1 = blob(3, 0, 1)
    Xt_d0, yt_d0 = blob(0, 10, 0)
    Xt_d1, yt_d1 = blob(3, 10, 1)
    X_test = np.vstack([Xt_p0, Xt_p1, Xt_d0, Xt_d1])
    y_test = np.concatenate([yt_p0, yt_p1, yt_d0, yt_d1]).astype(int)
    privileged = np.array([True] * 2 * n_per + [False] * 2 * n_per)
    return X_train, y_train, region, X_test, y_test, privileged


def test_region_tuples_valued_by_their_group():
    X_train, y_train, region, X_test, y_test, privileged = make_grouped_data()
    result = FairnessShapleyValuator(k=5).value(
        X_train, y_train, X_test, y_test, privileged, ~privileged
    )
    priv_rows = region == "priv"
    # tuples in the privileged region contribute to the privileged
    # utility and (almost) nothing to the disadvantaged one
    assert result.privileged_values[priv_rows].mean() > (
        result.privileged_values[~priv_rows].mean()
    )
    assert result.disadvantaged_values[~priv_rows].mean() > (
        result.disadvantaged_values[priv_rows].mean()
    )


def test_disparity_values_positive_for_privileged_helpers():
    X_train, y_train, region, X_test, y_test, privileged = make_grouped_data()
    result = FairnessShapleyValuator(k=5).value(
        X_train, y_train, X_test, y_test, privileged, ~privileged
    )
    priv_rows = region == "priv"
    assert result.disparity_values[priv_rows].mean() > 0
    assert result.disparity_values[~priv_rows].mean() < 0


def test_widening_gap_orientation():
    X_train, y_train, region, X_test, y_test, privileged = make_grouped_data()
    result = FairnessShapleyValuator(k=5).value(
        X_train, y_train, X_test, y_test, privileged, ~privileged
    )
    toward_priv = result.widening_gap(current_disparity=+0.2, quantile=0.9)
    toward_dis = result.widening_gap(current_disparity=-0.2, quantile=0.9)
    priv_rows = region == "priv"
    # widening a privileged-favouring gap = tuples helping the
    # privileged group; the opposite sign flips the selection
    assert (priv_rows[toward_priv]).mean() > 0.8
    assert (priv_rows[toward_dis]).mean() < 0.2
    assert not (toward_priv & toward_dis).any()


def test_widening_gap_invalid_quantile():
    X_train, y_train, __, X_test, y_test, privileged = make_grouped_data()
    result = FairnessShapleyValuator(k=5).value(
        X_train, y_train, X_test, y_test, privileged, ~privileged
    )
    with pytest.raises(ValueError):
        result.widening_gap(0.1, quantile=0.0)


def test_recall_only_restricts_to_positives():
    X_train, y_train, __, X_test, y_test, privileged = make_grouped_data()
    full = FairnessShapleyValuator(k=5, recall_only=False).value(
        X_train, y_train, X_test, y_test, privileged, ~privileged
    )
    recall = FairnessShapleyValuator(k=5, recall_only=True).value(
        X_train, y_train, X_test, y_test, privileged, ~privileged
    )
    assert not np.allclose(full.privileged_values, recall.privileged_values)


def test_empty_group_rejected():
    X_train, y_train, __, X_test, y_test, privileged = make_grouped_data()
    with pytest.raises(ValueError, match="at least one"):
        FairnessShapleyValuator().value(
            X_train,
            y_train,
            X_test,
            y_test,
            np.zeros(len(y_test), dtype=bool),
            ~privileged,
        )


def test_mask_length_validated():
    X_train, y_train, __, X_test, y_test, privileged = make_grouped_data()
    with pytest.raises(ValueError, match="match the test set"):
        FairnessShapleyValuator().value(
            X_train, y_train, X_test, y_test, privileged[:-1], ~privileged
        )


def test_invalid_quantile():
    X_train, y_train, __, X_test, y_test, privileged = make_grouped_data()
    result = FairnessShapleyValuator().value(
        X_train, y_train, X_test, y_test, privileged, ~privileged
    )
    with pytest.raises(ValueError):
        result.widening_gap(current_disparity=0.1, quantile=1.0)


def test_invalid_k():
    with pytest.raises(ValueError):
        FairnessShapleyValuator(k=0)
