"""Tests for the fairness audit layer (repro.obs.audit)."""

import json

import numpy as np
import pytest

from repro.benchmark import ImpactAnalysis, ResultStore, RunRecord
from repro.obs import (
    FairnessAudit,
    GroupAudit,
    build_audit,
    diff_audits,
    load_baseline,
    render_audit,
    render_audit_diff,
)
from repro.stats import Impact


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
    # paired differences 0.1 and 0.2: t = 3 on 1 degree of freedom,
    # p = 1 - 2 atan(3) / pi — widened, but not significantly
    verdict, p_value = entry.fairness["DP"]
    assert verdict == "insignificant"
    assert p_value == pytest.approx(1 - 2 * np.arctan(3) / np.pi)
    assert set(entry.fairness) == {"DP", "EO", "EOdds", "PP"}
    assert entry.accuracy[0] in {"worse", "insignificant", "better"}


def test_build_audit_is_record_order_independent():
    records = [
        make_record(repetition=i, repaired_dis=(9 + i % 2, 1 - i % 2, 7, 3))
        for i in range(3)
    ]
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


def test_old_format_audit_is_rejected_naming_the_format():
    payload = build_audit(store_with(make_record())).to_json()
    del payload["format"]
    with pytest.raises(ValueError, match="G²-era format"):
        FairnessAudit.from_json(payload)
    payload["format"] = "paired-t-v0"
    with pytest.raises(ValueError, match="'paired-t-v0'"):
        FairnessAudit.from_json(payload)


def test_load_baseline_reads_the_audit_key(tmp_path):
    audit = build_audit(store_with(make_record(), make_record(repetition=1)))
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"audit": audit.to_json(), "diff": {}}))
    assert load_baseline(path).to_json() == audit.to_json()
    path.write_text(json.dumps(audit.to_json()))  # a bare audit is no baseline
    with pytest.raises(ValueError, match="no 'audit' object"):
        load_baseline(path)
    path.write_text("[]")
    with pytest.raises(ValueError, match="no 'audit' object"):
        load_baseline(path)


def multi_repetition_store(n_repetitions=6):
    """Three error types, single + intersectional groups, per-config
    effects from none to strong in either direction."""
    rng = np.random.default_rng(7)
    store = ResultStore()
    configurations = (
        ("missing_values", "missing_values", "impute_mean_mode"),
        ("missing_values", "missing_values", "impute_mean_dummy"),
        ("outliers", "outliers_iqr", "repair_outliers_mean"),
        ("mislabels", "cleanlab", "flip_labels"),
    )
    fragments = ("sex_priv", "sex_dis", "age_priv", "age_dis",
                 "sex_priv__age_priv", "sex_dis__age_dis")
    for error_type, detection, repair in configurations:
        for model in ("log_reg", "knn"):
            shift = int(rng.integers(-12, 13))
            for repetition in range(n_repetitions):
                metrics = {
                    "dirty_test_acc": float(rng.uniform(0.7, 0.8)),
                    f"{repair}_test_acc": float(rng.uniform(0.7, 0.8)),
                }
                for technique in ("dirty", repair):
                    for fragment in fragments:
                        tn, fp, fn, tp = (int(v) for v in rng.integers(20, 40, 4))
                        if technique == repair and fragment.endswith("dis"):
                            tp, fn = max(0, tp + shift), max(0, fn - shift)
                        metrics.update(
                            confusion_keys(technique, fragment, tn, fp, fn, tp)
                        )
                store.add(
                    RunRecord(
                        dataset="german",
                        error_type=error_type,
                        detection=detection,
                        repair=repair,
                        model=model,
                        repetition=repetition,
                        tuning_seed=0,
                        metrics=metrics,
                    )
                )
    return store


def test_audit_verdicts_agree_with_impact_matrices():
    """The audit and Tables II–XIII count the same verdicts."""
    store = multi_repetition_store()
    audit = build_audit(store)
    analysis = ImpactAnalysis(store)
    moved = 0
    for error_type in ("missing_values", "outliers", "mislabels"):
        entries = [e for e in audit.groups if e.error_type == error_type]
        for metric in ("PP", "EO"):
            matrices = [
                analysis.matrix(error_type, metric, intersectional)
                for intersectional in (False, True)
            ]
            for impact in Impact:
                audited = sum(
                    entry.fairness[metric][0] == impact.value for entry in entries
                )
                expected = sum(m.fairness_marginal(impact) for m in matrices)
                assert audited == expected, (error_type, metric, impact)
                if impact is not Impact.INSIGNIFICANT:
                    moved += audited
    assert moved > 0  # the fixture resolves some verdicts


def test_one_repetition_store_is_insignificant_and_reported_underpowered():
    store = multi_repetition_store(n_repetitions=1)
    audit = build_audit(store)
    assert audit.groups and all(entry.n_runs == 1 for entry in audit.groups)
    assert {
        verdict[0] for entry in audit.groups for verdict in entry.fairness.values()
    } == {"insignificant"}
    diff = diff_audits(audit, audit)
    assert diff.underpowered == len(audit.groups)
    text = render_audit_diff(diff)
    assert f"{len(audit.groups)} configuration(s) x group(s) have fewer than 2" in text


# -- diff_audits ------------------------------------------------------


def test_self_diff_is_clean():
    audit = build_audit(store_with(make_record(), make_record(repetition=1)))
    diff = diff_audits(audit, audit)
    assert diff.findings
    assert diff.regressions == []
    assert diff.improvements == []
    assert all(f.move == 0 and f.baseline == f.candidate for f in diff.findings)


def _audit_with_verdict(verdict, p_value=0.01, gap=0.1, n_runs=8):
    """Single-entry audit with a chosen DP verdict and repaired gap."""
    entry = GroupAudit(
        dataset="german",
        error_type="missing_values",
        detection="simple",
        repair="impute_mean_mode",
        model="log_reg",
        group="sex",
        n_runs=n_runs,
        dirty_acc=0.8,
        repaired_acc=0.75,
        accuracy=["insignificant", 0.5],
        gaps={"DP": [0.1, gap]},
        fairness={"DP": [verdict, p_value]},
    )
    return FairnessAudit(groups=[entry], metrics=("DP",), n_records=n_runs)


def test_diff_flags_significant_widening_as_regression():
    for before, after in (
        ("insignificant", "worse"),
        ("better", "insignificant"),
        ("better", "worse"),
    ):
        diff = diff_audits(_audit_with_verdict(before), _audit_with_verdict(after))
        (finding,) = diff.regressions
        assert finding.coordinate.endswith("/sex/DP")
        assert (finding.baseline[0], finding.candidate[0]) == (before, after)
        assert diff.improvements == []


def test_diff_requires_statistical_evidence():
    # the gap widened from 0.10 to 0.45, but the paired t-test resolves
    # no change of verdict: nothing is flagged
    baseline = _audit_with_verdict("insignificant", p_value=0.4, gap=0.10)
    candidate = _audit_with_verdict("insignificant", p_value=0.06, gap=0.45)
    diff = diff_audits(baseline, candidate)
    assert diff.regressions == []
    (finding,) = diff.findings
    assert not finding.regression
    assert finding.candidate_gap == pytest.approx(0.45)


def test_diff_reports_significant_narrowing_as_improvement():
    for before, after in (
        ("worse", "insignificant"),
        ("insignificant", "better"),
        ("worse", "better"),
    ):
        diff = diff_audits(_audit_with_verdict(before), _audit_with_verdict(after))
        assert diff.regressions == []
        (finding,) = diff.improvements
        assert finding.move > 0


def test_diff_marks_new_and_vanished_coordinates():
    audit = build_audit(store_with(make_record()))
    diff = diff_audits(FairnessAudit(), audit)
    assert diff.regressions == []
    assert {finding.note for finding in diff.findings} == {"new"}
    reverse = diff_audits(audit, FairnessAudit())
    assert {finding.note for finding in reverse.findings} == {"vanished"}
    assert reverse.regressions == []


def test_render_audit_and_diff_are_printable():
    audit = build_audit(store_with(make_record()))
    text = render_audit(audit)
    assert "FAIRNESS AUDIT" in text
    assert "Largest gap widenings" in text
    assert "Alerts" not in text
    assert "german/missing_values" in text
    assert "DP: worse 0   insignificant 1   better 0" in text
    diff_text = render_audit_diff(diff_audits(audit, audit))
    assert "no fairness regressions" in diff_text
    moved = render_audit_diff(
        diff_audits(_audit_with_verdict("better"), _audit_with_verdict("worse"))
    )
    assert "REGRESSIONS" in moved
    assert "better p=0.01 -> worse p=0.01" in moved
