"""Tests for the markdown study-report builder."""

import pytest

from repro.benchmark import ResultStore, StudyConfig, run_parallel_study
from repro.reporting import build_study_report


@pytest.fixture(scope="module")
def mini_store():
    store = ResultStore()
    run_parallel_study(
        StudyConfig.smoke_scale(),
        store,
        datasets=("german",),
        error_types=("missing_values",),
        models=("log_reg",),
    )
    return store


def test_report_contains_expected_sections(mini_store):
    report = build_study_report(mini_store, title="Smoke study")
    assert report.startswith("# Smoke study")
    assert "## Table II" in report
    assert "## Table IV" in report  # intersectional groups exist on german
    assert "## Table XIV" in report
    assert "Headline:" in report


def test_report_skips_absent_error_types(mini_store):
    report = build_study_report(mini_store)
    assert "## Table VI:" not in report  # no outlier runs in the store
    assert "## Table X:" not in report


def test_report_mentions_store_size(mini_store):
    report = build_study_report(mini_store)
    assert f"{len(mini_store)} run records" in report


def test_empty_store_report():
    report = build_study_report(ResultStore(), title="Empty")
    assert report.startswith("# Empty")
    assert "## Table" not in report
