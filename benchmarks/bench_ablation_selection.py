"""Extension bench: fairness-aware cleaning-method selection (§VII).

The paper's vision section argues that, because most cases admit at
least one non-worsening technique, a principled selection methodology
can mitigate the damage of automated cleaning. This bench evaluates
the FairnessAwareSelector: across all cases, how often does picking
the fairness-first configuration avoid worsening fairness, compared to
the worst-case (adversarial) pick and a fixed default
(impute_mean_dummy / iqr+mean / flip_labels)?
"""

from conftest import save_artifact

from repro import FairnessAwareSelector, ImpactAnalysis
from repro.reporting.report import paper_tables
from repro.stats.impact import Impact

_DEFAULTS = {
    "missing_values": "impute_mean_dummy",
    "outliers": "repair_outliers_mean",
    "mislabels": "flip_labels",
}


def build_report(store) -> str:
    impacts = paper_tables(ImpactAnalysis(store))[1].impacts
    selector = FairnessAwareSelector(impacts)
    recommendations = selector.recommend_all()

    cases = {
        (i.dataset, i.group_key, i.metric_name, i.error_type) for i in impacts
    }
    worst_safe = 0
    default_safe = 0
    for dataset, group_key, metric_name, error_type in cases:
        members = [
            i
            for i in impacts
            if (i.dataset, i.group_key, i.metric_name, i.error_type)
            == (dataset, group_key, metric_name, error_type)
        ]
        if all(m.fairness_impact is not Impact.WORSE for m in members):
            worst_safe += 1
        defaults = [m for m in members if m.repair == _DEFAULTS[error_type]]
        if defaults and all(
            m.fairness_impact is not Impact.WORSE for m in defaults
        ):
            default_safe += 1

    lines = [
        "EXTENSION: FAIRNESS-AWARE CLEANING-METHOD SELECTION (paper §VII)",
        f"  cases:                                 {len(cases)}",
        f"  fairness-aware selector avoids harm:   "
        f"{sum(r.safe for r in recommendations)} / {len(recommendations)} "
        f"({100 * selector.safety_rate():.1f}%)",
        f"  fixed default repair avoids harm:      {default_safe} / {len(cases)}",
        f"  worst-case (any pick) avoids harm:     {worst_safe} / {len(cases)}",
    ]
    return "\n".join(lines)


def test_ablation_selection(benchmark, study_store):
    text = benchmark.pedantic(build_report, args=(study_store,), rounds=1, iterations=1)
    save_artifact("ablation_selection.txt", text)
    assert "FAIRNESS-AWARE" in text
