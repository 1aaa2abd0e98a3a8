"""Integration tests for the experiment runner (german, smoke scale)."""

import dataclasses

import pytest

from repro.benchmark import (
    ImpactAnalysis,
    ResultStore,
    StudyConfig,
    run_parallel_study,
)
from repro.ml import incremental
from tests.cleaning.test_detector_fit_apply import count_scored_rows


def run_german(config, store, error_types, **kwargs):
    return run_parallel_study(
        config, store, datasets=("german",), error_types=error_types, **kwargs
    )


@pytest.fixture(scope="module")
def german_store():
    store = ResultStore()
    run_german(
        StudyConfig.smoke_scale(),
        store,
        ("missing_values", "outliers", "mislabels"),
        models=("log_reg",),
    )
    return store


def test_expected_record_counts(german_store):
    # 2 reps x 1 model x (6 MV repairs + 9 outlier combos + 1 mislabel)
    assert len(list(german_store.records(error_type="missing_values"))) == 12
    assert len(list(german_store.records(error_type="outliers"))) == 18
    assert len(list(german_store.records(error_type="mislabels"))) == 2


def test_records_contain_dirty_and_repair_metrics(german_store):
    record = next(german_store.records(error_type="missing_values"))
    assert "dirty_test_acc" in record.metrics
    assert f"{record.repair}_test_acc" in record.metrics
    assert "dirty_best_params" in record.metrics
    assert f"{record.repair}_test_f1" in record.metrics


def test_records_contain_group_confusions_for_all_specs(german_store):
    record = next(german_store.records(error_type="missing_values"))
    repair = record.repair
    # single-attribute: age and sex; intersectional: sex x age
    for fragment in ("age_priv", "age_dis", "sex_priv", "sex_dis",
                     "sex_priv__age_priv", "sex_dis__age_dis"):
        for cell in ("tn", "fp", "fn", "tp"):
            assert f"dirty__{fragment}__{cell}" in record.metrics
            assert f"{repair}__{fragment}__{cell}" in record.metrics


def test_grid_fast_path_study_records_byte_identical():
    """The ``score_grid`` kernels must not change a single study metric:
    a full repetition over all three models matches the naive loop."""

    def run(grid_fast_path):
        config = dataclasses.replace(
            StudyConfig.smoke_scale(),
            n_repetitions=1,
            grid_fast_path=grid_fast_path,
        )
        store = ResultStore()
        run_german(config, store, ("mislabels",))
        return {record.key: record.metrics for record in store.records()}

    fast = run(True)
    naive = run(False)
    assert fast.keys() == naive.keys() and len(fast) > 0
    for key in naive:
        assert fast[key] == naive[key], key


def test_group_confusions_sum_to_group_sizes(german_store):
    record = next(german_store.records(error_type="outliers"))
    priv_total = sum(
        record.metrics[f"dirty__sex_priv__{cell}"]
        for cell in ("tn", "fp", "fn", "tp")
    )
    dis_total = sum(
        record.metrics[f"dirty__sex_dis__{cell}"]
        for cell in ("tn", "fp", "fn", "tp")
    )
    assert priv_total > 0 and dis_total > 0


def test_accuracies_are_probabilities(german_store):
    for record in german_store.records():
        assert 0.0 <= record.metrics["dirty_test_acc"] <= 1.0
        assert 0.0 <= record.metrics[f"{record.repair}_test_acc"] <= 1.0


def test_outlier_detection_names(german_store):
    detections = {r.detection for r in german_store.records(error_type="outliers")}
    assert detections == {"outliers_sd", "outliers_iqr", "outliers_if"}


def test_mislabel_repair_name(german_store):
    record = next(german_store.records(error_type="mislabels"))
    assert record.repair == "flip_labels"
    assert record.detection == "cleanlab"


def test_impact_analysis_configuration_counts(german_store):
    analysis = ImpactAnalysis(german_store)
    impacts = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    # 6 repairs x 1 model x 2 single-attribute groups
    assert len(impacts) == 12
    intersectional = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=True
    )
    assert len(intersectional) == 6
    assert all(impact.intersectional for impact in intersectional)


def test_impact_matrix_total_matches_configurations(german_store):
    analysis = ImpactAnalysis(german_store)
    matrix = analysis.matrix("outliers", "EO", intersectional=False)
    # 9 combos x 1 model x 2 groups
    assert matrix.total == 18


def test_runner_resumes_without_duplicates(german_store):
    added = run_german(
        StudyConfig.smoke_scale(),
        german_store,
        ("missing_values",),
        models=("log_reg",),
    )
    assert added == 0


def test_runner_rejects_unknown_error_type():
    with pytest.raises(ValueError, match="error type"):
        run_german(StudyConfig.smoke_scale(), ResultStore(), ("typos",))


def test_heart_skips_missing_values():
    added = run_parallel_study(
        StudyConfig.smoke_scale(),
        ResultStore(),
        datasets=("heart",),
        error_types=("missing_values",),
    )
    assert added == 0


def test_outliers_unit_scores_the_training_rows_once(monkeypatch):
    """The isolation forest scores the training split once, in ``fit``,
    whose flags ``apply(train)`` reuses; only the test split is scored
    again: two ``score_samples`` calls per outliers unit, not three."""
    calls = count_scored_rows(monkeypatch)
    config = dataclasses.replace(StudyConfig.smoke_scale(), n_repetitions=1)
    added = run_german(config, ResultStore(), ("outliers",), models=("log_reg",))
    assert added == 9
    assert len(calls) == 2
    assert calls[0] > calls[1]  # the training split, then the test split


def _count_reuse(monkeypatch):
    """Record every ``version_delta`` call and every unit's reuse scope."""
    calls, scopes = [], []
    check = incremental.version_delta
    init = incremental.ReuseScope.__init__

    def counted(*args):
        calls.append(args)
        return check(*args)

    def recorded(scope, *args, **kwargs):
        init(scope, *args, **kwargs)
        scopes.append(scope)

    monkeypatch.setattr(incremental, "version_delta", counted)
    monkeypatch.setattr(incremental.ReuseScope, "__init__", recorded)
    return calls, scopes


def test_outliers_unit_checks_each_repair_once(monkeypatch):
    """No outlier repair touches a categorical cell, so each of the nine
    repaired versions matches the dirty version at its first check:
    nine ``version_delta`` calls, not one per pair of versions (45)."""
    calls, _ = _count_reuse(monkeypatch)
    config = dataclasses.replace(StudyConfig.smoke_scale(), n_repetitions=1)
    run_german(config, ResultStore(), ("outliers",), models=("log_reg",))
    assert len(calls) == 9


@pytest.mark.parametrize(
    ("error_type", "hits"),
    [("missing_values", 4), ("outliers", 9), ("mislabels", 1)],
)
def test_one_hot_reuse_per_unit(monkeypatch, error_type, hits):
    """Every repaired version with a categorical match reuses a one-hot
    block, as many as under a search over every earlier version. A
    version with no match is featurised cold without a recorded miss
    (the first missing-values repair, and one other there)."""
    _, scopes = _count_reuse(monkeypatch)
    config = dataclasses.replace(StudyConfig.smoke_scale(), n_repetitions=1)
    run_german(config, ResultStore(), (error_type,), models=("log_reg",))
    assert [scope.counts()["featurize"] for scope in scopes] == [
        {"hits": hits, "misses": 0}
    ]


def test_runner_is_deterministic():
    def run():
        store = ResultStore()
        run_german(
            StudyConfig.smoke_scale(), store, ("mislabels",), models=("log_reg",)
        )
        return store

    a, b = run(), run()
    keys = [record.key for record in a.records()]
    assert keys == [record.key for record in b.records()]
    for key in keys:
        assert a.get(key).metrics == b.get(key).metrics
