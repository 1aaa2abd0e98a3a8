"""End-to-end integration tests across the whole stack.

These exercise the public API exactly as the examples and benches do,
at smoke scale, pinning the cross-module contracts: store persistence
and resume, impact analysis over fresh runs, the deep dive and the
fairness-aware selector, and the RQ1 pipeline.
"""

import numpy as np
import pytest

from repro import (
    DeepDive,
    DisparityAnalysis,
    FairnessAwareSelector,
    ImpactAnalysis,
    StudyConfig,
    dataset_definition,
    run_parallel_study,
)
from repro.benchmark import ResultStore
from repro.reporting import (
    render_case_counts,
    render_disparity_figure,
    render_impact_matrix,
    render_model_table,
)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "study.json"
    store = ResultStore(path)
    run_german(store, ("missing_values", "mislabels"))
    return path, store


def run_german(store, error_types):
    return run_parallel_study(
        StudyConfig.smoke_scale(),
        store,
        datasets=("german",),
        error_types=error_types,
        models=("log_reg",),
    )


def test_store_resume_after_reload(study):
    path, store = study
    reloaded = ResultStore(path)
    assert len(reloaded) == len(store)
    assert run_german(reloaded, ("missing_values",)) == 0


def test_impact_analysis_from_reloaded_store(study):
    path, __ = study
    analysis = ImpactAnalysis(ResultStore(path))
    matrix = analysis.matrix("missing_values", "EO", intersectional=False)
    assert matrix.total == 12  # 6 repairs x 1 model x 2 groups


def test_full_analysis_pipeline_renders(study):
    __, store = study
    analysis = ImpactAnalysis(store)
    impacts = []
    for error_type in ("missing_values", "mislabels"):
        for metric in ("PP", "EO"):
            impacts.extend(
                analysis.configuration_impacts(error_type, metric, intersectional=False)
            )
    deepdive = DeepDive(impacts)
    model_text = render_model_table(deepdive.model_summaries(), "models")
    case_text = render_case_counts(deepdive.case_counts(), "cases")
    assert "log_reg" in model_text
    assert "cases analysed" in case_text
    matrix = analysis.matrix("mislabels", "EO", intersectional=True)
    assert "100%" in render_impact_matrix(matrix, "t")


def test_selector_covers_all_cases(study):
    __, store = study
    analysis = ImpactAnalysis(store)
    impacts = []
    for metric in ("PP", "EO"):
        impacts.extend(
            analysis.configuration_impacts(
                "missing_values", metric, intersectional=False
            )
        )
    selector = FairnessAwareSelector(impacts)
    recommendations = selector.recommend_all()
    # 2 metrics x 2 single-attribute groups on german
    assert len(recommendations) == 4
    assert 0.0 <= selector.safety_rate() <= 1.0


def test_rq1_pipeline_renders():
    definition = dataset_definition("german")
    table = definition.generate(n_rows=700, seed=1)
    analysis = DisparityAnalysis(random_state=0)
    findings = analysis.single_attribute(definition, table)
    text = render_disparity_figure(findings, "fig")
    assert "german / age" in text
    assert "missing_values" in text


def test_mislabel_records_reference_label_flips(study):
    __, store = study
    records = list(store.records(error_type="mislabels"))
    assert records
    for record in records:
        # mislabel repair must not change the test set: the dirty and
        # repaired confusion totals cover the same test tuples
        dirty_total = sum(
            record.metrics[f"dirty__sex_priv__{cell}"]
            for cell in ("tn", "fp", "fn", "tp")
        )
        clean_total = sum(
            record.metrics[f"flip_labels__sex_priv__{cell}"]
            for cell in ("tn", "fp", "fn", "tp")
        )
        assert dirty_total == clean_total


def test_missing_value_records_keep_test_size_constant(study):
    __, store = study
    for record in store.records(error_type="missing_values"):
        dirty_total = sum(
            record.metrics[f"dirty__age_priv__{cell}"]
            for cell in ("tn", "fp", "fn", "tp")
        ) + sum(
            record.metrics[f"dirty__age_dis__{cell}"]
            for cell in ("tn", "fp", "fn", "tp")
        )
        repair = record.repair
        clean_total = sum(
            record.metrics[f"{repair}__age_priv__{cell}"]
            for cell in ("tn", "fp", "fn", "tp")
        ) + sum(
            record.metrics[f"{repair}__age_dis__{cell}"]
            for cell in ("tn", "fp", "fn", "tp")
        )
        # the dirty baseline imputes (never drops) on the test set, so
        # both versions score the identical test tuples
        assert dirty_total == clean_total


def test_two_identical_studies_produce_identical_metrics(tmp_path):
    def run(path):
        store = ResultStore(path)
        run_german(store, ("mislabels",))
        return store

    a = run(tmp_path / "a.json")
    b = run(tmp_path / "b.json")
    keys = [record.key for record in a.records()]
    assert keys == [record.key for record in b.records()]
    for key in keys:
        metrics_a, metrics_b = a.get(key).metrics, b.get(key).metrics
        assert set(metrics_a) == set(metrics_b)
        for name in metrics_a:
            value_a, value_b = metrics_a[name], metrics_b[name]
            if isinstance(value_a, float) and np.isnan(value_a):
                assert np.isnan(value_b)
            else:
                assert value_a == value_b
