"""Tests for the fit/apply split of the outlier detectors.

The Fig-3 evaluation process requires detectors to learn their
thresholds on the training partition and apply them unchanged to the
test partition — these tests pin that contract.
"""

import numpy as np
import pytest

from repro.cleaning import (
    IqrOutlierDetector,
    IsolationForestOutlierDetector,
    SdOutlierDetector,
)
from repro.ml import IsolationForest
from repro.tabular import Table


def make_tables():
    rng = np.random.default_rng(0)
    train = Table.from_columns({"x": rng.normal(0, 1, 500)})
    test_values = rng.normal(0, 1, 100)
    test_values[0] = 50.0  # extreme relative to the train distribution
    test = Table.from_columns({"x": test_values})
    return train, test


@pytest.mark.parametrize(
    "detector_factory", [SdOutlierDetector, IqrOutlierDetector]
)
def test_fit_on_train_flags_test_outlier(detector_factory):
    train, test = make_tables()
    detector = detector_factory().fit(train)
    result = detector.apply(test)
    assert result.row_mask[0]
    assert result.row_mask.sum() <= 10


@pytest.mark.parametrize(
    "detector_factory", [SdOutlierDetector, IqrOutlierDetector]
)
def test_apply_unfitted_raises(detector_factory):
    __, test = make_tables()
    with pytest.raises(RuntimeError, match="not fitted"):
        detector_factory().apply(test)


def test_thresholds_come_from_train_not_test():
    train, __ = make_tables()
    # a test table whose own distribution would hide the outlier
    wild = Table.from_columns({"x": np.linspace(-100, 100, 50)})
    detector = SdOutlierDetector().fit(train)
    result = detector.apply(wild)
    # under train thresholds (~±3), most of the wild values are outliers
    assert result.row_mask.mean() > 0.9
    # but fitting on the wild table itself flags none (uniform spread)
    refit = SdOutlierDetector().detect(wild)
    assert refit.n_flagged < result.n_flagged


def test_detect_equals_fit_apply():
    train, __ = make_tables()
    one_shot = IqrOutlierDetector().detect(train)
    two_step = IqrOutlierDetector().fit(train).apply(train)
    assert np.array_equal(one_shot.row_mask, two_step.row_mask)


def test_isolation_forest_fit_apply_roundtrip():
    train, test = make_tables()
    detector = IsolationForestOutlierDetector(random_state=1).fit(train)
    result = detector.apply(test)
    assert result.row_mask.shape == (100,)
    assert result.row_mask[0]  # the planted extreme point


def count_scored_rows(monkeypatch):
    """Rows per ``IsolationForest.score_samples`` call, in call order."""
    calls = []
    score = IsolationForest.score_samples

    def counted(self, X):
        calls.append(len(X))
        return score(self, X)

    monkeypatch.setattr(IsolationForest, "score_samples", counted)
    return calls


def test_isolation_forest_reuses_its_fit_scores_on_the_fitted_table(monkeypatch):
    """``apply`` on the table the detector was fitted on takes its flags
    from the fit's scores; a different table with equal contents is
    scored, and both give the same bits. Missing values and a
    categorical column keep incomplete rows out of the forest."""
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 400)
    x[[3, 50, 51]] = np.nan
    y = rng.normal(0, 1, 400)
    y[[7, 390]] = [9.0, -8.0]
    train = Table.from_columns(
        {"x": x, "y": y, "c": rng.choice(["a", "b"], size=400)}
    )
    twin = train.mask_rows(np.ones(train.n_rows, dtype=bool))
    calls = count_scored_rows(monkeypatch)
    detector = IsolationForestOutlierDetector(random_state=2).fit(train)
    assert calls == [397]  # the fit's threshold scores, complete rows only
    reused = detector.apply(train)
    assert calls == [397]
    scored = detector.apply(twin)
    assert calls == [397, 397]
    assert reused.n_flagged > 0
    assert not reused.row_mask[[3, 50, 51]].any()
    assert reused.row_mask.tobytes() == scored.row_mask.tobytes()
    assert reused.cell_masks.keys() == scored.cell_masks.keys() == {"x", "y"}
    for name, mask in reused.cell_masks.items():
        assert mask.tobytes() == scored.cell_masks[name].tobytes()
    # the returned masks are the caller's: changing one leaves the next intact
    reused.row_mask[:] = True
    assert detector.apply(train).row_mask.tobytes() == scored.row_mask.tobytes()


def test_isolation_forest_refit_scores_the_previously_fitted_table(monkeypatch):
    """A refit replaces the kept flags: the table of the earlier fit is
    scored again, the newly fitted one is not."""
    train, test = make_tables()
    detector = IsolationForestOutlierDetector(random_state=1).fit(train)
    calls = count_scored_rows(monkeypatch)
    detector.fit(test)
    detector.apply(test)
    detector.apply(train)
    assert calls == [100, 500]


def test_isolation_forest_apply_skips_missing_rows():
    train, test = make_tables()
    values = test.column("x")
    values[5] = np.nan
    test = test.with_numeric_column("x", values)
    detector = IsolationForestOutlierDetector(random_state=1).fit(train)
    result = detector.apply(test)
    assert not result.row_mask[5]


def test_fit_ignores_all_missing_column():
    train = Table.from_columns({"x": np.full(20, np.nan), "y": np.arange(20.0)})
    detector = IqrOutlierDetector().fit(train)
    result = detector.apply(train)
    assert not result.cell_masks["x"].any()


def test_apply_handles_column_subset():
    """Applying to a table that lacks a fitted column must not crash."""
    train, __ = make_tables()
    detector = SdOutlierDetector().fit(train)
    other = Table.from_columns({"z": np.arange(5.0)})
    result = detector.apply(other)
    # unfitted column: no bounds -> nothing flagged
    assert not result.row_mask.any()
