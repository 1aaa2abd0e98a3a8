"""Tests for the fairness audit layer (repro.obs.audit)."""

import json

import pytest

from repro.benchmark import ResultStore, RunRecord
from repro.obs import (
    AlertRule,
    FairnessAudit,
    GroupAudit,
    build_audit,
    diff_audits,
    evaluate_rules,
    render_audit,
    render_audit_diff,
)


def confusion_keys(technique, fragment, tn, fp, fn, tp):
    return {
        f"{technique}__{fragment}__tn": tn,
        f"{technique}__{fragment}__fp": fp,
        f"{technique}__{fragment}__fn": fn,
        f"{technique}__{fragment}__tp": tp,
    }


def make_metrics(
    repair="impute_mean_mode",
    dirty_priv=(5, 5, 5, 5),     # selection rate 0.5
    dirty_dis=(8, 2, 6, 4),      # selection rate 0.3
    repaired_priv=(5, 5, 5, 5),  # selection rate 0.5
    repaired_dis=(9, 1, 7, 3),   # selection rate 0.2
):
    metrics = {"dirty_test_acc": 0.80, f"{repair}_test_acc": 0.75}
    metrics.update(confusion_keys("dirty", "sex_priv", *dirty_priv))
    metrics.update(confusion_keys("dirty", "sex_dis", *dirty_dis))
    metrics.update(confusion_keys(repair, "sex_priv", *repaired_priv))
    metrics.update(confusion_keys(repair, "sex_dis", *repaired_dis))
    return metrics


def make_record(repetition=0, tuning_seed=0, repair="impute_mean_mode", **overrides):
    return RunRecord(
        dataset="german",
        error_type="missing_values",
        detection="simple",
        repair=repair,
        model="log_reg",
        repetition=repetition,
        tuning_seed=tuning_seed,
        metrics=make_metrics(repair=repair, **overrides),
    )


def store_with(*records):
    store = ResultStore()
    for record in records:
        store.add(record)
    return store


# -- build_audit ------------------------------------------------------


def test_build_audit_aggregates_means_and_counts():
    audit = build_audit(
        store_with(
            make_record(repetition=0, repaired_dis=(9, 1, 7, 3)),   # |DP| 0.3
            make_record(repetition=1, repaired_dis=(10, 0, 8, 2)),  # |DP| 0.4
        )
    )
    assert audit.n_records == 2
    (entry,) = audit.groups
    assert entry.coordinate == (
        "german/missing_values/simple/impute_mean_mode/log_reg/sex"
    )
    assert entry.n_runs == 2
    assert entry.dirty_acc == pytest.approx(0.80)
    assert entry.repaired_acc == pytest.approx(0.75)
    # mean |disparity|: dirty 0.2 both reps, repaired (0.3 + 0.4) / 2
    assert entry.gaps["DP"][0] == pytest.approx(0.2)
    assert entry.gaps["DP"][1] == pytest.approx(0.35)
    assert entry.widening("DP") == pytest.approx(0.15)
    # confusion counts sum across records
    assert entry.counts["repaired_dis"] == [19, 1, 15, 5]
    assert entry.counts["dirty_priv"] == [10, 10, 10, 10]


def test_build_audit_is_record_order_independent():
    records = [make_record(repetition=i) for i in range(3)]
    forward = build_audit(store_with(*records)).to_json()
    backward = build_audit(store_with(*reversed(records))).to_json()
    assert forward == backward
    assert json.dumps(forward, sort_keys=True) == json.dumps(
        backward, sort_keys=True
    )


def test_audit_json_roundtrip():
    audit = build_audit(store_with(make_record()))
    clone = FairnessAudit.from_json(json.loads(json.dumps(audit.to_json())))
    assert clone.to_json() == audit.to_json()
    assert isinstance(clone.groups[0], GroupAudit)


def test_evaluate_rules_on_aggregated_audit():
    audit = build_audit(store_with(make_record(repaired_dis=(10, 0, 9, 1))))
    rules = (AlertRule(name="dp", metric="DP", epsilon=0.05),)
    alerts = evaluate_rules(rules, audit)
    assert len(alerts) == 1
    assert alerts[0].rule == "dp"
    assert alerts[0].coordinate.endswith("/sex/DP")


# -- diff_audits ------------------------------------------------------


def test_self_diff_is_clean():
    audit = build_audit(store_with(make_record(), make_record(repetition=1)))
    diff = diff_audits(audit, audit)
    assert diff.findings
    assert diff.regressions == []
    assert diff.improvements == []
    assert all(f.delta == 0.0 and f.p_value == 1.0 for f in diff.findings)


def _audit_with_counts(dp_gap, repaired_dis, n=200):
    """Single-entry audit with controllable DP gap and dis counts."""
    entry = GroupAudit(
        dataset="german",
        error_type="missing_values",
        detection="simple",
        repair="impute_mean_mode",
        model="log_reg",
        group="sex",
        n_runs=2,
        dirty_acc=0.8,
        repaired_acc=0.75,
        gaps={"DP": [0.1, dp_gap]},
        counts={
            "dirty_priv": [n, n, n, n],
            "dirty_dis": [n, n, n, n],
            "repaired_priv": [n, n, n, n],
            "repaired_dis": list(repaired_dis),
        },
    )
    return FairnessAudit(groups=[entry], metrics=("DP",), n_records=2)


def test_diff_flags_significant_widening_as_regression():
    baseline = _audit_with_counts(0.10, (200, 200, 200, 200))
    candidate = _audit_with_counts(0.45, (390, 10, 390, 10))
    diff = diff_audits(baseline, candidate)
    (finding,) = diff.regressions
    assert finding.coordinate.endswith("/sex/DP")
    assert finding.delta == pytest.approx(0.35)
    assert finding.significant
    assert finding.g_statistic > 0


def test_diff_requires_statistical_evidence():
    # same gap delta but identical confusion counts: G² = 0, no flag
    baseline = _audit_with_counts(0.10, (200, 200, 200, 200))
    candidate = _audit_with_counts(0.45, (200, 200, 200, 200))
    diff = diff_audits(baseline, candidate)
    assert diff.regressions == []
    (finding,) = diff.findings
    assert not finding.significant


def test_diff_noise_floors_suppress_small_changes():
    baseline = _audit_with_counts(0.10, (200, 200, 200, 200))
    candidate = _audit_with_counts(0.105, (390, 10, 390, 10))
    # |delta| 0.005 < min_gap 0.02: never flagged, G² never computed
    diff = diff_audits(baseline, candidate)
    (finding,) = diff.findings
    assert not finding.regression
    assert finding.p_value == 1.0


def test_diff_reports_significant_narrowing_as_improvement():
    baseline = _audit_with_counts(0.45, (390, 10, 390, 10))
    candidate = _audit_with_counts(0.10, (200, 200, 200, 200))
    diff = diff_audits(baseline, candidate)
    assert diff.regressions == []
    (finding,) = diff.improvements
    assert finding.delta == pytest.approx(-0.35)


def test_diff_marks_new_and_vanished_coordinates():
    audit = build_audit(store_with(make_record()))
    diff = diff_audits(FairnessAudit(), audit)
    assert diff.regressions == []
    assert {finding.note for finding in diff.findings} == {"new"}
    reverse = diff_audits(audit, FairnessAudit())
    assert {finding.note for finding in reverse.findings} == {"vanished"}


def test_render_audit_and_diff_are_printable():
    audit = build_audit(store_with(make_record()))
    rules = (AlertRule(name="dp", metric="DP", epsilon=0.05),)
    text = render_audit(audit, evaluate_rules(rules, audit))
    assert "FAIRNESS AUDIT" in text
    assert "german/missing_values" in text
    diff_text = render_audit_diff(diff_audits(audit, audit))
    assert "no fairness regressions" in diff_text
