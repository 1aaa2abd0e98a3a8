"""Tests for ImpactAnalysis internals: key recovery and value extraction."""

import numpy as np

from repro.benchmark import ImpactAnalysis, ResultStore, RunRecord
from repro.stats.impact import Impact


def make_record(repetition, dirty_counts, clean_counts, dirty_acc, clean_acc):
    """A record with sex-group confusion counts for dirty and repaired."""
    metrics = {"dirty_test_acc": dirty_acc, "impute_mean_dummy_test_acc": clean_acc}
    for technique, (priv, dis) in (
        ("dirty", dirty_counts),
        ("impute_mean_dummy", clean_counts),
    ):
        for fragment, counts in (("sex_priv", priv), ("sex_dis", dis)):
            for cell, count in zip(("tn", "fp", "fn", "tp"), counts):
                metrics[f"{technique}__{fragment}__{cell}"] = count
    return RunRecord(
        dataset="german",
        error_type="missing_values",
        detection="missing_values",
        repair="impute_mean_dummy",
        model="log_reg",
        repetition=repetition,
        tuning_seed=0,
        metrics=metrics,
    )


def build_store(n=10, improvement=True):
    """Dirty precision gap is large; clean gap small (or reversed)."""
    store = ResultStore()
    rng = np.random.default_rng(0)
    for repetition in range(n):
        jitter = int(rng.integers(0, 3))
        dirty = ((50, 10, 5, 40), (50, 2 + jitter, 5, 10))   # priv prec .8, dis ~.8+
        clean = ((50, 10, 5, 40), (50, 10 + jitter, 5, 40))  # closer precisions
        if not improvement:
            dirty, clean = clean, dirty
        store.add(
            make_record(
                repetition,
                dirty,
                clean,
                dirty_acc=0.70 + 0.001 * jitter,
                clean_acc=0.70 + 0.001 * jitter,
            )
        )
    return store


def test_group_keys_recovered_from_metrics():
    store = build_store(n=1)
    analysis = ImpactAnalysis(store)
    impacts = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert [impact.group_key for impact in impacts] == ["sex"]
    assert analysis.configuration_impacts(
        "missing_values", "PP", intersectional=True
    ) == []


def test_shrinking_gap_classified_better():
    analysis = ImpactAnalysis(build_store(improvement=True))
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.fairness_impact is Impact.BETTER
    assert impact.mean_clean_fairness < impact.mean_dirty_fairness


def test_growing_gap_classified_worse():
    analysis = ImpactAnalysis(build_store(improvement=False))
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.fairness_impact is Impact.WORSE


def test_identical_scores_classified_insignificant():
    store = ResultStore()
    for repetition in range(8):
        counts = ((50, 10, 5, 40), (50, 10, 5, 40))
        store.add(make_record(repetition, counts, counts, 0.7, 0.7))
    analysis = ImpactAnalysis(store)
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.fairness_impact is Impact.INSIGNIFICANT
    assert impact.accuracy_impact is Impact.INSIGNIFICANT


def test_dataset_and_model_filters():
    analysis = ImpactAnalysis(build_store())
    assert (
        analysis.configuration_impacts(
            "missing_values", "PP", intersectional=False, datasets=("adult",)
        )
        == []
    )
    assert (
        analysis.configuration_impacts(
            "missing_values", "PP", intersectional=False, models=("knn",)
        )
        == []
    )
    assert (
        len(
            analysis.configuration_impacts(
                "missing_values",
                "PP",
                intersectional=False,
                datasets=("german",),
                models=("log_reg",),
            )
        )
        == 1
    )


def test_n_runs_recorded():
    analysis = ImpactAnalysis(build_store(n=7))
    (impact,) = analysis.configuration_impacts(
        "missing_values", "PP", intersectional=False
    )
    assert impact.n_runs == 7
